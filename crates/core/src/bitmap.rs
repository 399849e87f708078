//! Persistent slab bitmaps with interleaved bit-stripe mapping (§5.1).
//!
//! A slab bitmap has one bit per block. In the *sequential* layout (1
//! stripe), bit *i* belongs to block *i*, so consecutive allocations update
//! adjacent bits in the same cache line and reflush it. In the
//! *interleaved* layout, the bitmap is divided into `S` bit stripes, each
//! occupying its own cache-line-aligned region; block *i* maps to stripe
//! `i mod S`, index `i / S` within the stripe. Consecutive blocks therefore
//! update bits in different cache lines.
//!
//! The layout deliberately *pads* each stripe to a cache line: trading a
//! few hundred bytes of header space per slab for the elimination of
//! reflushes is the paper's core bargain.

use nvalloc_pmem::{FlushKind, PmOffset, PmThread, PmemPool};

use crate::geometry::CACHE_LINE;

/// Geometry of one persistent bitmap: where each block's bit lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitmapLayout {
    nbits: usize,
    stripes: usize,
    /// Bytes per stripe region (cache-line aligned).
    stripe_bytes: usize,
}

impl BitmapLayout {
    /// Layout for `nbits` blocks across `stripes` stripes (1 = sequential).
    ///
    /// # Panics
    /// Panics if `nbits == 0` or `stripes == 0`.
    pub fn new(nbits: usize, stripes: usize) -> Self {
        assert!(nbits > 0 && stripes > 0);
        // No point in more stripes than bits.
        let stripes = stripes.min(nbits);
        let per_stripe_bits = nbits.div_ceil(stripes);
        let stripe_bytes = per_stripe_bits.div_ceil(8).next_multiple_of(CACHE_LINE);
        BitmapLayout { nbits, stripes, stripe_bytes }
    }

    /// Number of block bits tracked.
    pub fn nbits(&self) -> usize {
        self.nbits
    }

    /// Number of stripes in use.
    pub fn stripes(&self) -> usize {
        self.stripes
    }

    /// Total persistent bytes occupied by the bitmap.
    pub fn bytes(&self) -> usize {
        self.stripes * self.stripe_bytes
    }

    /// The stripe block `i`'s bit lives in (the tcache groups by this).
    #[inline]
    pub fn stripe_of(&self, i: usize) -> usize {
        debug_assert!(i < self.nbits);
        i % self.stripes
    }

    /// (byte offset within the bitmap region, bit index within that byte)
    /// for block `i`.
    #[inline]
    pub fn location(&self, i: usize) -> (usize, u32) {
        debug_assert!(i < self.nbits, "bit {i} out of {n}", n = self.nbits);
        let stripe = i % self.stripes;
        let idx = i / self.stripes;
        (stripe * self.stripe_bytes + idx / 8, (idx % 8) as u32)
    }

    /// Offset of the 8-byte word holding block `i`'s bit, plus the bit's
    /// position inside that word. Used for atomic persistent updates.
    #[inline]
    pub fn word_location(&self, i: usize) -> (usize, u32) {
        let (byte, bit) = self.location(i);
        (byte & !7, (byte & 7) as u32 * 8 + bit)
    }
}

/// A persistent bitmap at a fixed pool offset.
#[derive(Debug, Clone, Copy)]
pub struct PmBitmap {
    base: PmOffset,
    layout: BitmapLayout,
}

impl PmBitmap {
    /// View a bitmap with `layout` at pool offset `base` (8-byte aligned).
    pub fn new(base: PmOffset, layout: BitmapLayout) -> Self {
        debug_assert_eq!(base % 8, 0);
        PmBitmap { base, layout }
    }

    /// The layout in force.
    pub fn layout(&self) -> &BitmapLayout {
        &self.layout
    }

    /// Set block `i`'s bit, persistently (flush + fence), attributed as
    /// metadata traffic.
    pub fn set_persist(&self, pool: &PmemPool, t: &mut PmThread, i: usize) {
        let (word, bit) = self.layout.word_location(i);
        let off = self.base + word as u64;
        pool.fetch_or_u64(off, 1 << bit);
        pool.charge_store(t, off, 8);
        pool.flush(t, off, 8, FlushKind::Meta);
        pool.fence(t);
    }

    /// Clear block `i`'s bit, persistently.
    pub fn clear_persist(&self, pool: &PmemPool, t: &mut PmThread, i: usize) {
        let (word, bit) = self.layout.word_location(i);
        let off = self.base + word as u64;
        pool.fetch_and_u64(off, !(1 << bit));
        pool.charge_store(t, off, 8);
        pool.flush(t, off, 8, FlushKind::Meta);
        pool.fence(t);
    }

    /// Atomically clear block `i`'s bit, persistently, returning the bit's
    /// previous value. The atomic word RMW makes this safe without any
    /// lock: of two racing clears of the same bit, exactly one observes
    /// `true` (the lock-free free path's double-free detection).
    pub fn clear_persist_fetch(&self, pool: &PmemPool, t: &mut PmThread, i: usize) -> bool {
        let (word, bit) = self.layout.word_location(i);
        let off = self.base + word as u64;
        let prev = pool.fetch_and_u64(off, !(1 << bit));
        pool.charge_store(t, off, 8);
        pool.flush(t, off, 8, FlushKind::Meta);
        pool.fence(t);
        prev >> bit & 1 == 1
    }

    /// Atomically clear block `i`'s bit without persisting, returning its
    /// previous value (GC-variant counterpart of
    /// [`PmBitmap::clear_persist_fetch`]).
    pub fn clear_volatile_fetch(&self, pool: &PmemPool, i: usize) -> bool {
        let (word, bit) = self.layout.word_location(i);
        let prev = pool.fetch_and_u64(self.base + word as u64, !(1 << bit));
        prev >> bit & 1 == 1
    }

    /// Set or clear without persisting (used by the GC variant, which skips
    /// runtime metadata flushes entirely, and by recovery rebuilds).
    pub fn write_volatile(&self, pool: &PmemPool, i: usize, value: bool) {
        let (word, bit) = self.layout.word_location(i);
        let off = self.base + word as u64;
        if value {
            pool.fetch_or_u64(off, 1 << bit);
        } else {
            pool.fetch_and_u64(off, !(1 << bit));
        }
    }

    /// Read block `i`'s bit.
    pub fn get(&self, pool: &PmemPool, i: usize) -> bool {
        let (word, bit) = self.layout.word_location(i);
        pool.read_u64(self.base + word as u64) >> bit & 1 == 1
    }

    /// Zero the whole bitmap region (no flush; callers persist the region
    /// as part of header initialisation).
    pub fn clear_all(&self, pool: &PmemPool) {
        pool.fill_bytes(self.base, self.layout.bytes(), 0);
    }

    /// The one bulk reader: a dense copy of the bitmap, in which bit
    /// `i % 64` of word `i / 64` is block `i`'s bit. Each stripe word is
    /// read once and its set bits are mapped back to block indices; bits
    /// past `nbits` (stripe padding) are ignored.
    pub fn read_dense(&self, pool: &PmemPool) -> Vec<u64> {
        let l = &self.layout;
        let mut dense = vec![0u64; l.nbits.div_ceil(64)];
        for s in 0..l.stripes {
            for w in 0..l.nbits.div_ceil(l.stripes).div_ceil(64) {
                let word = [pool.read_u64(self.base + (s * l.stripe_bytes + w * 8) as u64)];
                let blocks = set_bits(&word).map(|j| (w * 64 + j) * l.stripes + s);
                for i in blocks.take_while(|&i| i < l.nbits) {
                    dense[i / 64] |= 1 << (i % 64);
                }
            }
        }
        dense
    }

    /// Count set bits.
    pub fn count_set(&self, pool: &PmemPool) -> usize {
        self.read_dense(pool).iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// The indices of the set bits of a dense bitmap
/// ([`PmBitmap::read_dense`]), ascending.
pub fn set_bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(w, &word)| {
        std::iter::successors(Some(word), |&rest| Some(rest & rest.wrapping_sub(1)))
            .take_while(|&rest| rest != 0)
            .map(move |rest| w * 64 + rest.trailing_zeros() as usize)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvalloc_pmem::{LatencyMode, PmemConfig};
    use std::sync::Arc;

    fn pool() -> Arc<PmemPool> {
        PmemPool::new(PmemConfig::default().pool_size(1 << 20).latency_mode(LatencyMode::Off))
    }

    #[test]
    fn layout_sequential_is_dense() {
        let l = BitmapLayout::new(1024, 1);
        assert_eq!(l.stripes(), 1);
        assert_eq!(l.bytes(), 128);
        assert_eq!(l.location(0), (0, 0));
        assert_eq!(l.location(9), (1, 1));
    }

    #[test]
    fn layout_interleaved_spreads_consecutive_blocks() {
        let l = BitmapLayout::new(1024, 6);
        // Consecutive blocks on different cache lines.
        for i in 0..1023 {
            let (a, _) = l.location(i);
            let (b, _) = l.location(i + 1);
            assert_ne!(a / CACHE_LINE, b / CACHE_LINE, "blocks {i},{} share a line", i + 1);
        }
    }

    #[test]
    fn layout_bits_are_unique() {
        for (n, s) in [(1024, 6), (100, 4), (8192, 8), (7, 6), (16, 16), (5, 8)] {
            let l = BitmapLayout::new(n, s);
            let mut seen = std::collections::HashSet::new();
            for i in 0..n {
                let loc = l.location(i);
                assert!(loc.0 < l.bytes());
                assert!(seen.insert(loc), "bit collision at block {i} ({n},{s})");
            }
        }
    }

    #[test]
    fn stripes_capped_by_bits() {
        let l = BitmapLayout::new(3, 8);
        assert_eq!(l.stripes(), 3);
    }

    #[test]
    fn set_clear_get_roundtrip() {
        let p = pool();
        let mut t = p.register_thread();
        let bm = PmBitmap::new(4096, BitmapLayout::new(500, 6));
        bm.clear_all(&p);
        assert!(!bm.get(&p, 123));
        bm.set_persist(&p, &mut t, 123);
        assert!(bm.get(&p, 123));
        assert!(!bm.get(&p, 122));
        assert!(!bm.get(&p, 124));
        bm.clear_persist(&p, &mut t, 123);
        assert!(!bm.get(&p, 123));
    }

    #[test]
    fn scan_and_count() {
        let p = pool();
        let bm = PmBitmap::new(0, BitmapLayout::new(64, 4));
        for i in [0usize, 7, 13, 63] {
            bm.write_volatile(&p, i, true);
        }
        assert_eq!(set_bits(&bm.read_dense(&p)).collect::<Vec<_>>(), vec![0, 7, 13, 63]);
        assert_eq!(bm.count_set(&p), 4);
    }

    /// The word reader yields exactly the blocks `get` reports set, on
    /// every layout of `layout_bits_are_unique`, and ignores padding bits
    /// set past `nbits`.
    #[test]
    fn word_reader_matches_per_bit_reads() {
        use rand::{Rng, SeedableRng};
        for (n, s) in [(1024, 6), (100, 4), (8192, 8), (7, 6), (16, 16), (5, 8)] {
            let layout = BitmapLayout::new(n, s);
            for seed in 0..8u64 {
                let p = pool();
                let bm = PmBitmap::new(4096, layout);
                // Padding first: every bit of the region, then clear the
                // real ones, so only bits past `nbits` stay set.
                p.fill_bytes(4096, layout.bytes(), 0xff);
                (0..n).for_each(|i| bm.write_volatile(&p, i, false));
                let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
                let density: f64 = rng.gen();
                (0..n).filter(|_| rng.gen_bool(density)).for_each(|i| {
                    bm.write_volatile(&p, i, true);
                });
                let want: Vec<usize> = (0..n).filter(|&i| bm.get(&p, i)).collect();
                let got: Vec<usize> = set_bits(&bm.read_dense(&p)).collect();
                assert_eq!(got, want, "({n},{s}) seed {seed}");
                assert_eq!(bm.count_set(&p), want.len());
                assert_eq!(bm.read_dense(&p).len(), n.div_ceil(64));
            }
        }
    }

    #[test]
    fn interleaving_eliminates_reflushes() {
        // Allocate 32 consecutive blocks; sequential layout reflushes,
        // 6-stripe layout must not.
        let run = |stripes: usize| {
            let p = PmemPool::new(
                PmemConfig::default().pool_size(1 << 20).latency_mode(LatencyMode::Virtual),
            );
            let mut t = p.register_thread();
            let bm = PmBitmap::new(0, BitmapLayout::new(1024, stripes));
            for i in 0..32 {
                bm.set_persist(&p, &mut t, i);
            }
            p.stats().reflushes()
        };
        assert!(run(1) > 20, "sequential layout must reflush heavily");
        assert_eq!(run(6), 0, "6-stripe layout must not reflush");
    }
}
