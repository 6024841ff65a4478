//! A frontier-lifetime recycling arena for `u64` word buffers.
//!
//! The abstract learner's per-iteration scratch — `prune_subsumed`'s
//! per-row containment bitsets and its live-word accumulator — used to
//! hit the global allocator on every frontier iteration (tens of
//! kilobytes per pass at the peak frontier sizes the benchmarks reach).
//! A [`WordArena`] keeps those buffers alive across iterations: `alloc`
//! hands out a zeroed buffer (recycling a returned one when it fits),
//! `recycle` returns it, and `reset` marks a run boundary.
//!
//! # Lifecycle and the interner escape hatch
//!
//! One arena lives per engine worker thread (a thread-local in the
//! learner) and is `reset` at the start of every `run_abstract_shared`
//! call — "frontier lifetime". The arena only ever owns *scratch* buffers:
//! any word vector that survives the run — a sealed
//! `SubsetRepr` payload, interned or not — is moved into its own
//! `Arc` allocation by `Subset::seal` and therefore outlives every
//! reset trivially (the hash-consing `Arc` escape hatch; see
//! DESIGN.md §10.2). Nothing handed out by the arena is ever reachable
//! from a `Subset`.
//!
//! Accounting: [`WordArena::peak_bytes`] is the high-water mark of bytes
//! held (free and handed out) since construction, and
//! [`WordArena::resets`] counts run boundaries; the learner reports both
//! through the engine metrics (`arena_bytes` / `arena_resets`).

/// A recycling pool of zeroed `u64` buffers with byte-level accounting.
#[derive(Debug, Default)]
pub struct WordArena {
    /// Returned buffers, available for reuse.
    free: Vec<Vec<u64>>,
    /// Bytes pooled and awaiting reuse (Σ capacity over `free`).
    free_bytes: usize,
    /// Bytes handed out by [`WordArena::alloc`] and not yet recycled —
    /// charged at allocation time, so buffers still outstanding at a
    /// [`WordArena::reset`] have already counted toward the watermark.
    live_bytes: usize,
    /// High-water mark of `free_bytes + live_bytes`.
    peak_bytes: usize,
    /// Run boundaries seen (one `reset` per learner run).
    resets: u64,
}

impl WordArena {
    /// An empty arena.
    pub fn new() -> Self {
        WordArena::default()
    }

    /// A zeroed buffer of exactly `len` words — recycled when a returned
    /// buffer has enough capacity, freshly allocated otherwise.
    pub fn alloc(&mut self, len: usize) -> Vec<u64> {
        match self.free.iter().position(|b| b.capacity() >= len) {
            Some(i) => {
                let mut buf = self.free.swap_remove(i);
                buf.clear();
                buf.resize(len, 0);
                // Moves from the pool to outstanding: total held is
                // unchanged, so recycling charges nothing new.
                let bytes = buf.capacity() * std::mem::size_of::<u64>();
                self.free_bytes = self.free_bytes.saturating_sub(bytes);
                self.live_bytes += bytes;
                buf
            }
            None => {
                let buf = vec![0u64; len];
                self.live_bytes += buf.capacity() * std::mem::size_of::<u64>();
                self.peak_bytes = self.peak_bytes.max(self.free_bytes + self.live_bytes);
                buf
            }
        }
    }

    /// Returns a buffer to the pool for reuse by a later [`alloc`].
    /// Capacity gained while the buffer was out (growth past the size
    /// charged at alloc time, or a buffer the arena never handed out)
    /// enters the accounting here, so the watermark is re-checked on
    /// every recycle as well as every alloc.
    ///
    /// [`alloc`]: WordArena::alloc
    pub fn recycle(&mut self, buf: Vec<u64>) {
        let bytes = buf.capacity() * std::mem::size_of::<u64>();
        self.live_bytes = self.live_bytes.saturating_sub(bytes);
        self.free_bytes += bytes;
        self.peak_bytes = self.peak_bytes.max(self.free_bytes + self.live_bytes);
        self.free.push(buf);
    }

    /// Marks a run boundary: bumps the reset counter, drops pooled
    /// buffers beyond a small keep-set so one outlier run cannot pin
    /// memory forever (recycled capacity within the keep-set survives —
    /// that is the point of the arena), and writes off any buffers still
    /// outstanding — they were charged at allocation time and have
    /// already counted toward [`WordArena::peak_bytes`], but they will
    /// never come back across a run boundary.
    pub fn reset(&mut self) {
        self.resets += 1;
        const KEEP: usize = 4;
        while self.free.len() > KEEP {
            let dropped = self.free.swap_remove(0);
            self.free_bytes = self
                .free_bytes
                .saturating_sub(dropped.capacity() * std::mem::size_of::<u64>());
        }
        self.live_bytes = 0;
    }

    /// High-water mark of bytes held by the arena since construction.
    pub fn peak_bytes(&self) -> usize {
        self.peak_bytes
    }

    /// Number of run boundaries ([`reset`](WordArena::reset) calls) seen.
    pub fn resets(&self) -> u64 {
        self.resets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_recycles_and_zeroes() {
        let mut arena = WordArena::new();
        let mut a = arena.alloc(10);
        assert_eq!(a, vec![0u64; 10]);
        a.iter_mut().for_each(|w| *w = !0);
        let cap = a.capacity();
        arena.recycle(a);
        // Same capacity comes back, zeroed, with no new bytes charged.
        let peak = arena.peak_bytes();
        let b = arena.alloc(8);
        assert_eq!(b, vec![0u64; 8]);
        assert_eq!(b.capacity(), cap);
        assert_eq!(arena.peak_bytes(), peak, "recycling charges nothing");
        // An oversized request allocates fresh and raises the peak.
        let c = arena.alloc(cap + 1);
        assert_eq!(c.len(), cap + 1);
        assert!(arena.peak_bytes() > peak);
    }

    #[test]
    fn reset_counts_and_bounds_the_pool() {
        let mut arena = WordArena::new();
        assert_eq!(arena.resets(), 0);
        for _ in 0..8 {
            let b = arena.alloc(4);
            arena.recycle(b);
        }
        // Recycling reuses one buffer, so the pool never exceeds 1 here;
        // fill it explicitly to exercise the keep-set bound.
        for _ in 0..8 {
            arena.recycle(vec![0u64; 4]);
        }
        arena.reset();
        assert_eq!(arena.resets(), 1);
        assert!(arena.free.len() <= 4, "reset bounds the pooled buffers");
        arena.reset();
        assert_eq!(arena.resets(), 2);
    }

    #[test]
    fn peak_counts_growth_while_out_and_buffers_live_at_reset() {
        // Regression: the watermark used to be updated only when a fresh
        // buffer was allocated, so capacity gained while a buffer was out
        // (growth, or a buffer the arena never handed out) silently
        // vanished from the peak. It is now re-checked on recycle too.
        let mut arena = WordArena::new();
        let mut a = arena.alloc(4); // 32 bytes charged at alloc time
        assert_eq!(arena.peak_bytes(), 32);
        a.resize(64, 0); // grows while out: capacity >= 512 bytes
        let grown = a.capacity() * std::mem::size_of::<u64>();
        arena.recycle(a);
        assert!(
            arena.peak_bytes() >= grown,
            "growth while out must count toward the watermark ({} < {grown})",
            arena.peak_bytes()
        );
        // A buffer still outstanding at reset was charged at alloc time,
        // so the watermark already covers it; the reset writes it off
        // without disturbing the recorded peak.
        let mut arena = WordArena::new();
        let held = arena.alloc(8); // 64 bytes outstanding
        assert_eq!(arena.peak_bytes(), 64);
        arena.reset();
        assert_eq!(
            arena.peak_bytes(),
            64,
            "buffers live at reset count toward the watermark"
        );
        drop(held);
        // After the boundary the write-off keeps later accounting sane:
        // the next run's scratch is not stacked on the written-off bytes.
        let b = arena.alloc(8);
        assert_eq!(arena.peak_bytes(), 64, "new run restarts from zero live");
        drop(b);
    }
}
