//! What the benchmark reads from the machine it runs on: a monotonic
//! clock, CPU-time clocks, resident memory and the host fingerprint.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Nanoseconds since the first call in this process. Every span and
/// schedule in the benchmark is expressed on this one clock.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Sleeps until `deadline_ns` on the [`now_ns`] clock (returns at once if
/// it has passed) and returns the time it woke at.
pub fn sleep_until(deadline_ns: u64) -> u64 {
    let now = now_ns();
    if now < deadline_ns {
        std::thread::sleep(Duration::from_nanos(deadline_ns - now));
        return now_ns();
    }
    now
}

/// The reference speed, by definition: that of a core on which
/// [`Reference::time_ns`] reads this. A time "at reference speed" is the
/// measured time divided by how much longer than this the kernel took
/// beside it — a count of core cycles in all but name, written in
/// microseconds of such a core. The figure is about what the kernel takes
/// on the host the benchmark was written on (its core steps between
/// clock states that read 11.4 to 17.3 us; see README, "Reference speed");
/// on another CPU model reference-speed and wall-clock microseconds differ
/// by a constant factor, which drops out of every comparison of two
/// commits on one host. It must not be re-derived per run: the quietest
/// kernel time of a run ranged from 11.3 to 15.5 us over ten runs here.
pub const REFERENCE_NS: f64 = 16_500.0;

/// Whole cache lines, so that no vector load of the kernel straddles two:
/// on a 16-byte-aligned heap block the same loop runs up to twice as slow,
/// and which alignment a block gets changes from process to process.
#[repr(C, align(64))]
struct Lines([f32; 4096]);

/// A fixed piece of arithmetic — 128 passes of fused multiply-add over
/// 4096 floats that stay in the first-level cache — timed to learn how
/// fast the core is running right now.
///
/// This VM's cores do not run at one speed: what the neighbours do moves
/// every compute-bound time, the program's and this kernel's alike, by
/// 5 % from minute to minute and by 30 % for minutes at a stretch (README,
/// "Reference speed"). Dividing a measured time by the kernel's time,
/// measured in the same half second, takes that out; it is as close to
/// counting core cycles as a guest without performance counters gets. A
/// change to the program that slows the core itself would slow the kernel
/// with it and be divided out, which is why every run also prints its
/// figures as the wall clock saw them.
///
/// Only a thread that is already busy should time it: a core that has
/// just woken up runs it up to three times slower.
pub struct Reference {
    values: Box<Lines>,
    samples: Vec<f64>,
}

impl Reference {
    #[allow(clippy::new_without_default)]
    pub fn new() -> Reference {
        Reference {
            values: Box::new(Lines([0.5; 4096])),
            samples: Vec::with_capacity(1024),
        }
    }

    /// Runs the kernel once and returns how long it took.
    pub fn time_ns(&mut self) -> f64 {
        let values = &mut self.values.0;
        values.fill(0.5);
        let start = now_ns();
        for _ in 0..128 {
            for x in values.iter_mut() {
                *x = x.mul_add(0.999, 0.25);
            }
        }
        std::hint::black_box(&values);
        (now_ns() - start) as f64
    }

    /// Runs the kernel once and keeps the time for [`Reference::slowdown`].
    pub fn sample(&mut self) {
        let t = self.time_ns();
        self.samples.push(t);
    }

    /// Keeps the core busy with the kernel for `ns`, sampling all the while.
    pub fn sample_for(&mut self, ns: u64) {
        let until = now_ns() + ns;
        while now_ns() < until {
            self.sample();
        }
    }

    /// How much slower than its reference speed the core ran over the
    /// samples kept since the last call: their median over
    /// [`REFERENCE_NS`]. 1.0 without samples.
    pub fn slowdown(&mut self) -> f64 {
        if self.samples.is_empty() {
            return 1.0;
        }
        self.samples.sort_by(f64::total_cmp);
        let median = self.samples[self.samples.len() / 2];
        self.samples.clear();
        median / REFERENCE_NS
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads Linux CPU-time clocks and /proc; it needs 64-bit Linux");

/// User + system CPU time of the whole process, every thread included.
/// `/proc/self/stat` holds the same figure in 10 ms ticks, which is too
/// coarse for half-second slices of a nearly idle server.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` with the 64-bit Linux
    // layout (two 64-bit fields), and the clock id is valid on every
    // Linux kernel, so the call only writes those 16 bytes.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Resident set size of this process in kB (`VmRSS`).
pub fn rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// First line of a command's standard output, or `"unknown"`.
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// What has to match before two sets of numbers may be compared.
pub struct Fingerprint {
    pub cpu_model: String,
    pub nproc: usize,
    pub rustc: String,
    pub git_commit: String,
}

pub fn fingerprint() -> Fingerprint {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu_model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    Fingerprint {
        cpu_model,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        rustc: command_line("rustc", &["--version"]),
        git_commit: command_line("git", &["rev-parse", "HEAD"]),
    }
}
