//! A recycling scratch allocator for inference.
//!
//! Every `forward_infer` pass of a transformer allocates the same ladder of
//! intermediate tensors — projections, attention scores, FFN activations —
//! and frees them microseconds later. Under a serving worker that is
//! thousands of identical allocation patterns per second hammering the
//! global allocator.
//!
//! [`TensorArena`] breaks the cycle: it keeps a pool of previously-used
//! `f32` buffers, hands them out via [`TensorArena::tensor`] /
//! [`TensorArena::alloc`], and takes them back via
//! [`TensorArena::recycle`]. After one warm-up pass the pool holds a buffer
//! for every intermediate in the forward graph, so steady-state forwards
//! perform **zero heap allocations** (pinned by an allocation-counting test
//! in the umbrella crate).
//!
//! # Lifecycle
//!
//! The intended discipline mirrors a bump allocator with a per-forward
//! reset, expressed through ownership instead of pointers:
//!
//! 1. a layer allocates its output from the arena,
//! 2. the caller recycles each intermediate as soon as the next layer has
//!    consumed it,
//! 3. the final output is copied out (or handed to the caller) and the
//!    buffer recycled, returning the arena to its checkpoint state.
//!
//! Forgetting to recycle is *safe* — the buffer is simply dropped and the
//! pool re-grows on the next pass — it just costs an allocation.
//!
//! ```
//! use bioformer_tensor::arena::TensorArena;
//!
//! let mut arena = TensorArena::new();
//! let a = arena.tensor(&[4, 8]);       // pool miss: heap allocation
//! arena.recycle(a);
//! let b = arena.tensor(&[8, 4]);       // pool hit: same buffer, no alloc
//! assert_eq!(arena.stats().misses, 1);
//! assert_eq!(arena.stats().hits, 1);
//! # drop(b);
//! ```

use crate::tensor::Tensor;

/// Allocation counters of a [`TensorArena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ArenaStats {
    /// Requests served from the pool without touching the heap.
    pub hits: usize,
    /// Requests that had to allocate (or grow) a buffer on the heap.
    pub misses: usize,
    /// Buffers returned via [`TensorArena::recycle`].
    pub recycled: usize,
}

/// A pool of reusable `f32` buffers backing inference scratch tensors.
///
/// Not thread-safe by design: each serving worker owns one arena (`&mut`
/// threading keeps the borrow checker, not a lock, in charge).
#[derive(Debug, Default)]
pub struct TensorArena {
    free: Vec<Vec<f32>>,
    stats: ArenaStats,
}

impl TensorArena {
    /// An empty arena; buffers are acquired lazily on first use.
    pub fn new() -> Self {
        TensorArena::default()
    }

    /// Takes a buffer of exactly `len` zero-initialised elements, reusing a
    /// pooled buffer when one is large enough (best fit).
    pub fn alloc(&mut self, len: usize) -> Vec<f32> {
        // Best fit: the smallest pooled buffer whose capacity suffices, so
        // a small request does not burn the one big buffer a later large
        // request needs.
        let mut best: Option<(usize, usize)> = None; // (index, capacity)
        for (i, buf) in self.free.iter().enumerate() {
            let cap = buf.capacity();
            if cap >= len && best.is_none_or(|(_, c)| cap < c) {
                best = Some((i, cap));
            }
        }
        match best {
            Some((i, _)) => {
                self.stats.hits += 1;
                let mut buf = self.free.swap_remove(i);
                buf.clear();
                buf.resize(len, 0.0);
                buf
            }
            None => {
                self.stats.misses += 1;
                // Recycle the smallest pooled buffer's storage if one
                // exists? No: growing it would reallocate anyway. A fresh
                // buffer keeps the pool's size distribution intact.
                vec![0.0f32; len]
            }
        }
    }

    /// Takes a zeroed tensor of the given shape from the pool.
    pub fn tensor(&mut self, dims: &[usize]) -> Tensor {
        let len: usize = dims.iter().product();
        Tensor::from_vec(self.alloc(len), dims)
    }

    /// Returns a tensor's buffer to the pool.
    pub fn recycle(&mut self, t: Tensor) {
        self.recycle_vec(t.into_vec());
    }

    /// Returns a raw buffer to the pool.
    pub fn recycle_vec(&mut self, buf: Vec<f32>) {
        if buf.capacity() > 0 {
            self.stats.recycled += 1;
            self.free.push(buf);
        }
    }

    /// Allocation counters since construction (or the last
    /// [`TensorArena::reset_stats`]).
    pub fn stats(&self) -> ArenaStats {
        self.stats
    }

    /// Zeroes the counters, e.g. after a warm-up pass, so a later
    /// [`ArenaStats::misses`] reading counts only steady-state behaviour.
    pub fn reset_stats(&mut self) {
        self.stats = ArenaStats::default();
    }

    /// Number of buffers currently pooled.
    pub fn pooled(&self) -> usize {
        self.free.len()
    }

    /// Total capacity, in elements, of the pooled buffers.
    pub fn pooled_capacity(&self) -> usize {
        self.free.iter().map(Vec::capacity).sum()
    }

    /// Drops every pooled buffer (frees the memory).
    pub fn clear(&mut self) {
        self.free.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reuse_after_recycle_is_a_hit() {
        let mut arena = TensorArena::new();
        let t = arena.tensor(&[8]);
        assert_eq!(arena.stats().misses, 1);
        arena.recycle(t);
        let t2 = arena.tensor(&[2, 3]); // smaller: fits the pooled buffer
        assert_eq!(arena.stats().hits, 1);
        assert_eq!(arena.stats().misses, 1);
        assert_eq!(t2.len(), 6);
        assert!(t2.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn alloc_zeroes_previous_contents() {
        let mut arena = TensorArena::new();
        let mut t = arena.tensor(&[4]);
        t.data_mut().fill(7.0);
        arena.recycle(t);
        let t2 = arena.tensor(&[4]);
        assert!(t2.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn best_fit_prefers_smallest_sufficient_buffer() {
        let mut arena = TensorArena::new();
        let big = arena.tensor(&[100]);
        let small = arena.tensor(&[10]);
        arena.recycle(big);
        arena.recycle(small);
        // A 10-element request must take the 10-capacity buffer…
        let t = arena.tensor(&[10]);
        assert_eq!(arena.pooled(), 1);
        // …leaving the 100-capacity one for a large request.
        let t2 = arena.tensor(&[64]);
        assert_eq!(arena.stats().hits, 2);
        drop((t, t2));
    }

    #[test]
    fn steady_state_has_no_misses() {
        let mut arena = TensorArena::new();
        // Warm-up: the forward "graph" allocates three live tensors at once.
        for _ in 0..2 {
            let a = arena.tensor(&[16, 16]);
            let b = arena.tensor(&[16, 4]);
            let c = arena.tensor(&[4]);
            arena.recycle(a);
            arena.recycle(b);
            arena.recycle(c);
        }
        arena.reset_stats();
        for _ in 0..10 {
            let a = arena.tensor(&[16, 16]);
            let b = arena.tensor(&[16, 4]);
            let c = arena.tensor(&[4]);
            arena.recycle(a);
            arena.recycle(b);
            arena.recycle(c);
        }
        assert_eq!(arena.stats().misses, 0, "steady state must not allocate");
        assert_eq!(arena.stats().hits, 30);
    }

    #[test]
    fn zero_len_tensors_are_fine() {
        let mut arena = TensorArena::new();
        let t = arena.tensor(&[0]);
        assert!(t.is_empty());
        arena.recycle(t); // capacity 0: silently dropped
        assert_eq!(arena.pooled(), 0);
    }
}
