//! A tiny scoped-thread work splitter, and the one rule that decides when
//! to use it.
//!
//! The training workloads in this repository are dominated by medium-size
//! GEMMs ([`crate::matmul`]) and per-sample loops; both parallelise trivially
//! over an index range. Rather than pulling in a work-stealing runtime, this
//! module splits a range into contiguous chunks and runs them on scoped
//! `std::thread`s, which keeps the crate dependency-free and deterministic.
//!
//! Every fan-out in the workspace — the GEMM kernels and the batch forwards
//! of both models, fp32 `Bioformer` and int8 `QuantBioformer` — asks
//! [`plan_threads`] how many shards a job is worth and runs them through
//! [`parallel_rows`]: the calling thread runs the first shard, and each
//! shard writes its own rows of the output in place. The two models fan a
//! batch out window by window through [`ScratchPool::map_rows`], each
//! shard borrowing one warmed scratch arena from the model's pool.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Minimum amount of work, in FLOPs (2 per multiply–accumulate), below
/// which [`plan_threads`] keeps a job on the calling thread.
///
/// Spawning and joining one scoped thread costs ~50 µs on a 2-vCPU Xeon
/// @ 2.1 GHz VM (median of 2 000 spawns, the host otherwise idle), and a
/// live-stream batch that paid two of them per call read 267 µs of
/// backend time against ~110 µs of compute. Besides large single-call
/// GEMMs, the threshold therefore gates the batch fan-out of both models,
/// fp32 and int8: a bio1 window is 3.3 M MACs, so batches of 11 windows or
/// more fan out and the 1–2 window batches of a live stream run inline.
/// The trainer shards mini-batches one level up, under the same thread cap
/// ([`max_threads`]).
pub const PARALLEL_WORK_THRESHOLD: usize = 1 << 26;

static MAX_THREADS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Overrides the number of worker threads [`plan_threads`] may hand out.
///
/// `0` restores the default (the machine's available parallelism, capped at
/// 16). Intended for benchmarks that need single-threaded baselines and for
/// tests.
pub fn set_max_threads(n: usize) {
    MAX_THREADS_OVERRIDE.store(n, Ordering::Relaxed);
}

/// Serialises tests that mutate the process-global thread override; tests
/// run concurrently in one binary, so unsynchronised [`set_max_threads`]
/// calls race. Lock via [`override_guard`] before overriding.
#[cfg(test)]
pub(crate) static OVERRIDE_TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Takes the override lock and sets `n`; the previous default (0) is
/// restored when the guard drops, even on panic.
#[cfg(test)]
pub(crate) fn override_guard(n: usize) -> impl Drop {
    // The guard's only job is to hold the lock until drop.
    struct Guard(#[allow(dead_code)] std::sync::MutexGuard<'static, ()>);
    impl Drop for Guard {
        fn drop(&mut self) {
            set_max_threads(0);
        }
    }
    let lock = OVERRIDE_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    set_max_threads(n);
    Guard(lock)
}

/// The machine's available parallelism, queried once and cached —
/// `std::thread::available_parallelism` performs cgroup filesystem reads
/// that cost ~0.7 ms per call on some container kernels, far too slow for
/// per-kernel dispatch decisions.
pub fn hardware_threads() -> usize {
    static CACHED: OnceLock<usize> = OnceLock::new();
    *CACHED.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// The process thread cap: the most shards [`plan_threads`] hands out.
pub fn max_threads() -> usize {
    let forced = MAX_THREADS_OVERRIDE.load(Ordering::Relaxed);
    if forced > 0 {
        return forced;
    }
    hardware_threads().min(16)
}

/// Number of shards worth running a job of `work` FLOPs on — the one
/// fan-out rule, shared by the GEMM kernels and the batch forwards of the
/// fp32 and int8 models (`n` windows are `n` × one window's FLOPs):
///
/// * below [`PARALLEL_WORK_THRESHOLD`] (2²⁶ FLOPs) — or under a thread cap
///   of 1 — the answer is 1 (run on the caller's thread);
/// * above it, one shard per 2²⁴ FLOPs (16 MFLOP, ≈8 M multiply–adds),
///   clamped to `[2, max_threads]`.
///
/// Note the asymmetry: crossing the threshold jumps straight to
/// `2²⁶ ⁻ ²⁴ = 4` shards (not 2) because the threshold is deliberately set
/// where fan-out is already clearly profitable.
pub fn plan_threads(work: usize) -> usize {
    let max = max_threads();
    if max <= 1 || work < PARALLEL_WORK_THRESHOLD {
        1
    } else {
        (work >> 24).clamp(2, max)
    }
}

/// Runs `body(first_row, rows)` over contiguous shards of `out`, viewed as
/// rows of `row_len` elements, with as many shards as [`plan_threads`]
/// grants `work` (never more than there are rows). The calling thread runs
/// the first shard while scoped threads run the rest, and every shard
/// writes its own rows in place. A job that stays on one shard spawns
/// nothing and allocates nothing.
pub fn parallel_rows<T, F>(out: &mut [T], row_len: usize, work: usize, body: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let rows = out.len().checked_div(row_len).unwrap_or(0);
    let shards = plan_threads(work).min(rows);
    if shards <= 1 {
        body(0, out);
        return;
    }
    let per = rows.div_ceil(shards);
    let mut chunks = out.chunks_mut(per * row_len);
    let first = chunks.next().expect("at least two rows");
    std::thread::scope(|scope| {
        let body = &body;
        for (i, chunk) in chunks.enumerate() {
            scope.spawn(move || body((i + 1) * per, chunk));
        }
        body(0, first);
    });
}

/// Splits `0..n` into contiguous chunks and invokes `body(start, end)` for
/// each — the index-range form of [`parallel_rows`], under the same rule:
/// `work` is in FLOPs, and below [`PARALLEL_WORK_THRESHOLD`] (or under a
/// thread cap of 1) the call runs on the current thread.
///
/// The closure receives disjoint `[start, end)` ranges covering `0..n`
/// exactly once, so it may safely write to disjoint output slices (callers
/// split buffers with `split_at_mut` or equivalent).
pub fn parallel_chunks<F>(n: usize, work: usize, body: F)
where
    F: Fn(usize, usize) + Sync,
{
    if n == 0 {
        return;
    }
    // A slice of `()` is `n` rows of zero bytes: no allocation.
    parallel_rows(&mut vec![(); n], 1, work, |start, rows| {
        body(start, start + rows.len())
    });
}

/// A model's pool of scratch arenas behind its batch fan-out: each shard
/// of [`ScratchPool::map_rows`] pops a warmed arena (or lazily creates
/// one) and pushes it back, so steady-state forwards stay allocation-free.
/// A `Mutex` rather than a thread-local, so arenas warmed by one worker
/// thread are reusable by the next.
///
/// Scratch is per-instance working memory, not model state: a clone
/// starts with an empty pool.
pub struct ScratchPool<A> {
    free: Mutex<Vec<A>>,
}

impl<A> Default for ScratchPool<A> {
    fn default() -> Self {
        ScratchPool {
            free: Mutex::new(Vec::new()),
        }
    }
}

impl<A> Clone for ScratchPool<A> {
    fn clone(&self) -> Self {
        ScratchPool::default()
    }
}

impl<A> std::fmt::Debug for ScratchPool<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScratchPool")
            .field("pooled", &self.lock().len())
            .finish()
    }
}

impl<A> ScratchPool<A> {
    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<A>> {
        self.free.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The largest pooled arena by `size` (`0` when the pool is empty):
    /// what the pool holds on to between forwards.
    pub fn largest(&self, size: impl Fn(&A) -> usize) -> usize {
        self.lock().iter().map(size).max().unwrap_or(0)
    }
}

impl<A: Default + Send> ScratchPool<A> {
    /// Runs `f` on a pooled arena.
    pub fn with<R>(&self, f: impl FnOnce(&mut A) -> R) -> R {
        let mut scratch = self.lock().pop().unwrap_or_default();
        let result = f(&mut scratch);
        self.lock().push(scratch);
        result
    }

    /// The batch fan-out of both models: `f(input_row, out_row, arena)`
    /// for every row of `out` (rows of `out_row` elements) and the matching
    /// row of `input` (rows of `in_row`), sharded by [`parallel_rows`] with
    /// `row_work` FLOPs per row. Each shard runs its rows one at a time on
    /// one pooled arena, so the pool holds one row's scratch per shard,
    /// whatever the batch size.
    pub fn map_rows<I, O, F>(
        &self,
        input: &[I],
        in_row: usize,
        out: &mut [O],
        out_row: usize,
        row_work: usize,
        f: F,
    ) where
        I: Sync,
        O: Send,
        F: Fn(&[I], &mut [O], &mut A) + Sync,
    {
        let rows = out.len().checked_div(out_row).unwrap_or(0);
        assert_eq!(input.len(), rows * in_row, "one input row per output row");
        if rows == 0 {
            return;
        }
        parallel_rows(out, out_row, rows * row_work, |first, shard| {
            self.with(|scratch| {
                let inputs = input[first * in_row..].chunks_exact(in_row);
                for (x, y) in inputs.zip(shard.chunks_exact_mut(out_row)) {
                    f(x, y, scratch);
                }
            });
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn covers_range_exactly_once_serial() {
        let seen = Mutex::new(vec![0u32; 10]);
        parallel_chunks(10, 1, |s, e| {
            let mut v = seen.lock().unwrap();
            for i in s..e {
                v[i] += 1;
            }
        });
        assert!(seen.lock().unwrap().iter().all(|&c| c == 1));
    }

    #[test]
    fn covers_range_exactly_once_parallel() {
        let seen = Mutex::new(vec![0u32; 1000]);
        parallel_chunks(1000, PARALLEL_WORK_THRESHOLD * 2, |s, e| {
            let mut v = seen.lock().unwrap();
            for i in s..e {
                v[i] += 1;
            }
        });
        assert!(seen.lock().unwrap().iter().all(|&c| c == 1));
    }

    #[test]
    fn zero_items_is_noop() {
        parallel_chunks(0, usize::MAX, |_, _| panic!("must not be called"));
    }

    /// Shards split the rows without overlap, write them in place, and the
    /// first one runs on the calling thread.
    #[test]
    fn row_shards_write_in_place_and_the_caller_runs_the_first() {
        let _guard = override_guard(4);
        let caller = std::thread::current().id();
        let shards = Mutex::new(Vec::new());
        let mut out = vec![0usize; 10 * 3];
        // At the threshold: 4 shards of ⌈10/4⌉ = 3 rows.
        parallel_rows(&mut out, 3, PARALLEL_WORK_THRESHOLD, |row0, rows| {
            let on_caller = std::thread::current().id() == caller;
            shards
                .lock()
                .unwrap()
                .push((row0, rows.len() / 3, on_caller));
            for (i, row) in rows.chunks_mut(3).enumerate() {
                row.fill(row0 + i + 1);
            }
        });
        let mut shards = shards.into_inner().unwrap();
        shards.sort_unstable();
        assert_eq!(
            shards,
            [(0, 3, true), (3, 3, false), (6, 3, false), (9, 1, false)]
        );
        for (r, row) in out.chunks(3).enumerate() {
            assert_eq!(row, [r + 1; 3]);
        }
    }

    /// Below the threshold, or under a cap of 1, the whole job is one call
    /// on the calling thread.
    #[test]
    fn one_shard_below_the_threshold_or_under_a_cap_of_one() {
        for (cap, work) in [(4, PARALLEL_WORK_THRESHOLD - 1), (1, usize::MAX)] {
            let _guard = override_guard(cap);
            let calls = AtomicUsize::new(0);
            let mut out = vec![0u8; 64];
            parallel_rows(&mut out, 1, work, |row0, rows| {
                assert_eq!((row0, rows.len()), (0, 64));
                calls.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(calls.into_inner(), 1, "cap {cap}");
        }
    }

    /// Every row pair is mapped exactly once, shards return their arenas
    /// to the pool, and a clone starts with none.
    #[test]
    fn map_rows_maps_every_row_on_pooled_arenas() {
        let _guard = override_guard(4);
        let pool = ScratchPool::<Vec<usize>>::default();
        let input: Vec<usize> = (0..20).collect();
        let mut out = vec![0usize; 10];
        // 10 rows over the threshold: 4 shards, each on its own arena.
        let row_work = PARALLEL_WORK_THRESHOLD / 10 + 1;
        pool.map_rows(&input, 2, &mut out, 1, row_work, |x, y, seen| {
            seen.push(x[0]);
            y[0] = x[0] + x[1];
        });
        let want: Vec<usize> = (0..10).map(|r| 4 * r + 1).collect();
        assert_eq!(out, want);
        let most = pool.largest(Vec::len);
        assert!((3..=10).contains(&most), "an arena saw {most} rows");
        assert_eq!(pool.clone().largest(Vec::len), 0);
    }

    #[test]
    fn thread_override() {
        let guard = override_guard(3);
        assert_eq!(max_threads(), 3);
        drop(guard);
        assert!(max_threads() >= 1);
    }
}
