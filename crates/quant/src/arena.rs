//! The scratch slab of the integer inference path.
//!
//! A converted [`crate::QuantBioformer`] knows, at conversion time, every
//! intermediate buffer one window needs and how long each is
//! (its slab layout). [`QuantArena`] owns the memory: one run of `i8` codes
//! and one of `i32` accumulators, grown to the layout on the first (cold)
//! call — its single miss — and carved into the same named regions at the
//! same offsets on every call after that. There is no pool to search, no
//! buffer to zero and nothing to hand back, so a warmed forward performs
//! **zero** heap allocations (pinned by the allocation-counting test in
//! the umbrella crate) and touches no allocator bookkeeping at all.
//!
//! Not thread-safe by design: each worker owns one arena and `&mut`
//! threading keeps the borrow checker, not a lock, in charge.

/// Region lengths of one model's slab, fixed at conversion time. The `i8`
/// regions are laid out in field order, then the `i32` ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct SlabLayout {
    /// The window, quantized, channel-major `[C, W]`.
    pub input: usize,
    /// Its im2col image `[N, C·F]`.
    pub im2col: usize,
    /// The residual stream `[S, E]` (a block reads it and writes it back).
    pub tokens: usize,
    /// LayerNorm output `[S, E]` (`ln1`, then `ln2`).
    pub norm: usize,
    /// Queries `[S, H·P]`.
    pub q: usize,
    /// Keys `[S, H·P]`.
    pub k: usize,
    /// Values, transposed `[H·P, Sp]` (token axis zero-padded to `Sp`).
    pub vt: usize,
    /// One head's probabilities `[S, Sp]` (columns `S..Sp` stay zero).
    pub probs: usize,
    /// Concatenated head outputs `[S, H·P]`.
    pub att: usize,
    /// Projection output `[S, E]` (`wo`, then `fc2`).
    pub proj: usize,
    /// First residual sum `[S, E]`.
    pub res1: usize,
    /// FFN hidden activations `[S, hidden]`.
    pub hidden: usize,
    /// The normalised class row `[E]`.
    pub cls: usize,
    /// One head's score accumulators `[S, S]` (`i32`).
    pub scores: usize,
    /// Classifier accumulators `[classes]` (`i32`).
    pub logits: usize,
}

impl SlabLayout {
    /// Total `i8` codes.
    pub fn codes(&self) -> usize {
        self.input
            + self.im2col
            + self.tokens
            + self.norm
            + self.q
            + self.k
            + self.vt
            + self.probs
            + self.att
            + self.proj
            + self.res1
            + self.hidden
            + self.cls
    }

    /// Total `i32` accumulators.
    pub fn accs(&self) -> usize {
        self.scores + self.logits
    }

    /// Slab size in bytes.
    pub fn bytes(&self) -> usize {
        self.codes() + 4 * self.accs()
    }
}

/// The slab carved into its regions (see [`SlabLayout`] for what each
/// holds).
pub(crate) struct Slab<'a> {
    pub input: &'a mut [i8],
    pub im2col: &'a mut [i8],
    pub tokens: &'a mut [i8],
    pub norm: &'a mut [i8],
    pub q: &'a mut [i8],
    pub k: &'a mut [i8],
    pub vt: &'a mut [i8],
    pub probs: &'a mut [i8],
    pub att: &'a mut [i8],
    pub proj: &'a mut [i8],
    pub res1: &'a mut [i8],
    pub hidden: &'a mut [i8],
    pub cls: &'a mut [i8],
    pub scores: &'a mut [i32],
    pub logits: &'a mut [i32],
}

/// Splits the next `len` elements off the front of `rest`.
fn take<'a, T>(rest: &mut &'a mut [T], len: usize) -> &'a mut [T] {
    let (head, tail) = std::mem::take(rest).split_at_mut(len);
    *rest = tail;
    head
}

/// Slab counters of a [`QuantArena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QuantArenaStats {
    /// Forwards served from the slab as it stood.
    pub hits: usize,
    /// Forwards that had to (re)build the slab on the heap: the cold call,
    /// and any call that follows one for a differently shaped model.
    pub misses: usize,
}

/// The integer inference scratch: one slab, sized and zeroed on the cold
/// call and reused verbatim afterwards.
#[derive(Debug, Default)]
pub struct QuantArena {
    codes: Vec<i8>,
    accs: Vec<i32>,
    /// The layout the slab was last built for.
    layout: SlabLayout,
    stats: QuantArenaStats,
}

impl QuantArena {
    /// An empty arena; the slab is built on first use.
    pub fn new() -> Self {
        QuantArena::default()
    }

    /// The slab carved for `layout`. A layout other than the one the slab
    /// was built for rebuilds it zero-filled — regions a model never
    /// writes (the padding columns of `vt` and `probs`) are only ever zero
    /// because no other layout has written through them.
    pub(crate) fn carve(&mut self, layout: &SlabLayout) -> Slab<'_> {
        if self.layout == *layout {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
            self.layout = *layout;
            self.codes.clear();
            self.codes.resize(layout.codes(), 0);
            self.accs.clear();
            self.accs.resize(layout.accs(), 0);
        }
        let (mut codes, mut accs) = (&mut self.codes[..], &mut self.accs[..]);
        Slab {
            input: take(&mut codes, layout.input),
            im2col: take(&mut codes, layout.im2col),
            tokens: take(&mut codes, layout.tokens),
            norm: take(&mut codes, layout.norm),
            q: take(&mut codes, layout.q),
            k: take(&mut codes, layout.k),
            vt: take(&mut codes, layout.vt),
            probs: take(&mut codes, layout.probs),
            att: take(&mut codes, layout.att),
            proj: take(&mut codes, layout.proj),
            res1: take(&mut codes, layout.res1),
            hidden: take(&mut codes, layout.hidden),
            cls: take(&mut codes, layout.cls),
            scores: take(&mut accs, layout.scores),
            logits: take(&mut accs, layout.logits),
        }
    }

    /// Slab counters since construction (or the last
    /// [`QuantArena::reset_stats`]).
    pub fn stats(&self) -> QuantArenaStats {
        self.stats
    }

    /// Zeroes the counters, e.g. after a warm-up pass, so a later
    /// [`QuantArenaStats::misses`] reading counts only steady state.
    pub fn reset_stats(&mut self) {
        self.stats = QuantArenaStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout(scale: usize) -> SlabLayout {
        SlabLayout {
            input: 12 * scale,
            im2col: 12 * scale,
            tokens: 8 * scale,
            norm: 8 * scale,
            q: 6 * scale,
            k: 6 * scale,
            vt: 9 * scale,
            probs: 5 * scale,
            att: 6 * scale,
            proj: 8 * scale,
            res1: 8 * scale,
            hidden: 10 * scale,
            cls: 4 * scale,
            scores: 16 * scale,
            logits: 3 * scale,
        }
    }

    #[test]
    fn cold_call_is_the_single_miss() {
        let mut arena = QuantArena::new();
        let l = layout(3);
        for _ in 0..5 {
            let slab = arena.carve(&l);
            assert_eq!(slab.vt.len(), l.vt);
            assert_eq!(slab.scores.len(), l.scores);
        }
        assert_eq!(arena.stats(), QuantArenaStats { hits: 4, misses: 1 });
        arena.reset_stats();
        let _ = arena.carve(&l);
        assert_eq!(arena.stats().misses, 0, "steady state must not allocate");
    }

    #[test]
    fn regions_are_disjoint_and_cover_the_slab() {
        let mut arena = QuantArena::new();
        let l = layout(1);
        let slab = arena.carve(&l);
        let codes = [
            slab.input.len(),
            slab.im2col.len(),
            slab.tokens.len(),
            slab.norm.len(),
            slab.q.len(),
            slab.k.len(),
            slab.vt.len(),
            slab.probs.len(),
            slab.att.len(),
            slab.proj.len(),
            slab.res1.len(),
            slab.hidden.len(),
            slab.cls.len(),
        ];
        assert_eq!(codes.iter().sum::<usize>(), l.codes());
        assert_eq!(slab.scores.len() + slab.logits.len(), l.accs());
        // Distinct regions: a write through one is invisible in the next.
        slab.vt.fill(7);
        assert!(slab.probs.iter().all(|&v| v == 0));
    }

    /// A slab last used by another shape must come back zeroed: the plan
    /// relies on never-written padding staying zero.
    #[test]
    fn a_different_layout_rebuilds_zeroed() {
        let mut arena = QuantArena::new();
        let small = layout(1);
        arena.carve(&small).probs.fill(-1);
        arena.carve(&small).scores.fill(-1);
        let big = layout(2);
        let slab = arena.carve(&big);
        assert!(slab.probs.iter().all(|&v| v == 0));
        assert!(slab.scores.iter().all(|&v| v == 0));
        assert_eq!(arena.stats().misses, 2);
        // Back to the first shape: rebuilt again, not trusted.
        let slab = arena.carve(&small);
        assert!(slab.probs.iter().all(|&v| v == 0));
        assert_eq!(arena.stats().misses, 3);
    }
}
