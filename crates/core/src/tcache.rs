//! Thread-local caches with the interleaved sub-tcache layout (§5.1).
//!
//! A tcache holds one bin of ready-to-serve block addresses per size class.
//! In the *flat* layout (1 sub-tcache), LIFO order means consecutive
//! allocations often pick blocks whose bitmap bits share a cache line —
//! reflushing it even when the bitmap itself is interleaved. The
//! *interleaved* layout splits each bin into one sub-tcache per bit stripe
//! and serves them round-robin with a cursor, so consecutive allocations
//! touch bits in different cache lines (Fig. 6).

use nvalloc_pmem::PmOffset;

use crate::size_class::{ClassId, NUM_CLASSES};

/// One size class's cache.
#[derive(Debug)]
struct Bin {
    /// One LIFO stack per stripe (length 1 = flat layout).
    subs: Vec<Vec<PmOffset>>,
    /// Next sub-tcache to serve from.
    cursor: usize,
    /// Total cached blocks across subs.
    count: usize,
}

impl Bin {
    fn new(stripes: usize) -> Self {
        Bin { subs: (0..stripes).map(|_| Vec::new()).collect(), cursor: 0, count: 0 }
    }
}

/// A per-thread block cache.
#[derive(Debug)]
#[allow(dead_code)] // `stripes` is read by the unit tests and diagnostics
pub struct TCache {
    bins: Vec<Bin>,
    cap: usize,
    stripes: usize,
    /// Cursor rotations performed by [`TCache::pop`] in the interleaved
    /// layout (telemetry; merged into the allocator registry on thread
    /// exit).
    rotations: u64,
}

impl TCache {
    /// Create a tcache with `stripes` sub-tcaches per class (1 = flat LIFO)
    /// and `cap` max blocks per class.
    pub fn new(stripes: usize, cap: usize) -> Self {
        let stripes = stripes.max(1);
        TCache {
            bins: (0..NUM_CLASSES).map(|_| Bin::new(stripes)).collect(),
            cap: cap.max(1),
            stripes,
            rotations: 0,
        }
    }

    /// Cursor rotations performed so far (0 in the flat layout).
    pub fn rotations(&self) -> u64 {
        self.rotations
    }

    /// Number of sub-tcaches per bin.
    #[allow(dead_code)]
    pub fn stripes(&self) -> usize {
        self.stripes
    }

    /// Cached block count for a class.
    #[allow(dead_code)]
    pub fn len(&self, class: ClassId) -> usize {
        self.bins[class].count
    }

    /// True if no blocks are cached for `class`.
    #[allow(dead_code)]
    pub fn is_empty(&self, class: ClassId) -> bool {
        self.len(class) == 0
    }

    /// True if the class bin is at capacity.
    pub fn is_full(&self, class: ClassId) -> bool {
        self.bins[class].count >= self.cap
    }

    /// Pop one block, rotating the cursor across sub-tcaches so that
    /// consecutive pops come from different stripes.
    pub fn pop(&mut self, class: ClassId) -> Option<PmOffset> {
        let bin = &mut self.bins[class];
        if bin.count == 0 {
            return None;
        }
        let n = bin.subs.len();
        for probe in 0..n {
            let s = (bin.cursor + probe) % n;
            if let Some(addr) = bin.subs[s].pop() {
                bin.cursor = (s + 1) % n;
                bin.count -= 1;
                if n > 1 {
                    self.rotations += 1;
                }
                return Some(addr);
            }
        }
        unreachable!("count > 0 implies a non-empty sub-tcache");
    }

    /// Push a block whose bitmap bit lives in `stripe`. Returns `false` if
    /// the bin is full (caller must return the block to its slab instead).
    pub fn push(&mut self, class: ClassId, addr: PmOffset, stripe: usize) -> bool {
        let bin = &mut self.bins[class];
        if bin.count >= self.cap {
            return false;
        }
        let s = stripe % bin.subs.len();
        bin.subs[s].push(addr);
        bin.count += 1;
        true
    }

    /// Remove and return every cached block of `class` (tcache flush /
    /// thread exit).
    pub fn drain(&mut self, class: ClassId) -> Vec<PmOffset> {
        let bin = &mut self.bins[class];
        let mut out = Vec::with_capacity(bin.count);
        for sub in &mut bin.subs {
            out.append(sub);
        }
        bin.count = 0;
        out
    }

    /// Iterate over all cached blocks (diagnostics, leak checks in tests).
    #[allow(dead_code)]
    pub fn iter(&self) -> impl Iterator<Item = (ClassId, PmOffset)> + '_ {
        self.bins
            .iter()
            .enumerate()
            .flat_map(|(c, b)| b.subs.iter().flatten().map(move |a| (c, *a)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pop_roundtrip() {
        let mut tc = TCache::new(4, 64);
        assert!(tc.is_empty(3));
        assert!(tc.push(3, 1000, 0));
        assert!(tc.push(3, 2000, 1));
        assert_eq!(tc.len(3), 2);
        let a = tc.pop(3).unwrap();
        let b = tc.pop(3).unwrap();
        assert_eq!(tc.pop(3), None);
        let mut got = vec![a, b];
        got.sort_unstable();
        assert_eq!(got, vec![1000, 2000]);
    }

    #[test]
    fn capacity_is_enforced() {
        let mut tc = TCache::new(2, 4);
        for i in 0..4 {
            assert!(tc.push(0, i * 8, i as usize));
        }
        assert!(tc.is_full(0));
        assert!(!tc.push(0, 999, 0), "push past cap must be rejected");
    }

    #[test]
    fn rotation_spreads_stripes() {
        // Push 4 blocks per stripe; pops must cycle stripes 0,1,2,3,0,1,…
        let stripes = 4;
        let mut tc = TCache::new(stripes, 64);
        for s in 0..stripes {
            for k in 0..4 {
                // Encode the stripe in the address for checking.
                assert!(tc.push(0, (s * 100 + k) as u64, s));
            }
        }
        let mut last_stripe = None;
        for _ in 0..stripes * 4 {
            let addr = tc.pop(0).unwrap();
            let stripe = (addr / 100) as usize;
            if let Some(prev) = last_stripe {
                assert_ne!(prev, stripe, "consecutive pops must differ in stripe");
            }
            last_stripe = Some(stripe);
        }
        assert_eq!(tc.rotations(), (stripes * 4) as u64);
    }

    #[test]
    fn flat_layout_is_lifo() {
        let mut tc = TCache::new(1, 64);
        for i in 0..5u64 {
            tc.push(2, i, 0);
        }
        for i in (0..5u64).rev() {
            assert_eq!(tc.pop(2), Some(i));
        }
        assert_eq!(tc.rotations(), 0, "flat layout never rotates");
    }

    #[test]
    fn drain_empties_the_class() {
        let mut tc = TCache::new(3, 64);
        for i in 0..9u64 {
            tc.push(1, i, i as usize % 3);
        }
        let mut all = tc.drain(1);
        assert!(tc.is_empty(1));
        all.sort_unstable();
        assert_eq!(all, (0..9u64).collect::<Vec<_>>());
    }

    #[test]
    fn pop_skips_empty_subs() {
        let mut tc = TCache::new(4, 64);
        tc.push(0, 42, 2); // only stripe 2 populated
        assert_eq!(tc.pop(0), Some(42));
        assert_eq!(tc.pop(0), None);
    }

    #[test]
    fn iter_sees_everything() {
        let mut tc = TCache::new(2, 8);
        tc.push(0, 1, 0);
        tc.push(5, 2, 1);
        let mut got: Vec<(usize, u64)> = tc.iter().collect();
        got.sort_unstable();
        assert_eq!(got, vec![(0, 1), (5, 2)]);
    }
}
