//! Arenas: per-core containers of slabs (§4.2).
//!
//! Each CPU core owns an arena; each thread is assigned to the arena with
//! the fewest threads. An arena keeps, per size class, a freelist of slabs
//! with available blocks (`freelist_slab`), plus an LRU list over its
//! regular slabs from which morph candidates are chosen (§5.2), and the
//! arena's write-ahead log.
//!
//! Locking: the slab structures live under `Arena::inner`; WAL appends go
//! to per-thread micro-logs and need no lock at all, so the malloc fast
//! path (tcache hit + WAL append + atomic bitmap bit) never contends with
//! slab-list maintenance. Lock order is always arena inner → large
//! allocator.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::AtomicUsize;

use nvalloc_pmem::{PmOffset, PmThread, PmemPool};

use crate::geometry::GeometryTable;
use crate::remote::RemoteFreeQueue;
use crate::size_class::{ClassId, NUM_CLASSES};
use crate::slab::VSlab;
use crate::tcache::TCache;
use crate::telemetry::TimedMutex;
use crate::wal::WalRegion;

/// Persistent per-arena state flag values (§4.4).
pub mod arena_state {
    /// The arena is (or was, at crash time) running.
    pub const RUNNING: u64 = 1;
    /// `nvalloc_exit()` completed.
    pub const NORMAL_SHUTDOWN: u64 = 2;
    /// Recovery was in progress.
    pub const RECOVERY: u64 = 3;
}

/// The mutable core of an arena.
#[derive(Debug)]
pub struct ArenaInner {
    /// All slabs owned by this arena, by base offset.
    pub slabs: HashMap<PmOffset, VSlab>,
    /// Per class: slabs with at least one available block.
    pub freelist: Vec<VecDeque<PmOffset>>,
    /// LRU over regular (non-`slab_in`) slabs: token → slab offset;
    /// ascending iteration = least recently used first.
    pub lru: BTreeMap<u64, PmOffset>,
    next_token: u64,
}

impl ArenaInner {
    pub(crate) fn new() -> Self {
        ArenaInner {
            slabs: HashMap::new(),
            freelist: (0..NUM_CLASSES).map(|_| VecDeque::new()).collect(),
            lru: BTreeMap::new(),
            next_token: 1,
        }
    }

    /// Register a slab: slab map + class freelist + LRU.
    pub fn add_slab(&mut self, mut vslab: VSlab) {
        let off = vslab.off;
        let class = vslab.class;
        self.touch_lru(&mut vslab);
        if vslab.nfree > 0 {
            vslab.in_freelist = true;
            self.freelist[class].push_back(off);
        }
        self.slabs.insert(off, vslab);
    }

    /// Move a slab to the most-recently-used end of the LRU.
    fn touch_lru(&mut self, vslab: &mut VSlab) {
        if vslab.lru_token != 0 {
            self.lru.remove(&vslab.lru_token);
        }
        let token = self.next_token;
        self.next_token += 1;
        vslab.lru_token = token;
        self.lru.insert(token, vslab.off);
    }

    /// Touch a slab by offset (records "recent access" for morph LRU).
    pub fn touch(&mut self, off: PmOffset) {
        // Split-borrow via temporary take to satisfy the borrow checker.
        if let Some(mut vs) = self.slabs.remove(&off) {
            if vs.morph.is_none() {
                self.touch_lru(&mut vs);
            }
            self.slabs.insert(off, vs);
        }
    }

    /// Remove a slab from the LRU (it became a `slab_in` or is being
    /// destroyed).
    pub fn lru_remove(&mut self, off: PmOffset) {
        if let Some(vs) = self.slabs.get_mut(&off) {
            if vs.lru_token != 0 {
                self.lru.remove(&vs.lru_token);
                vs.lru_token = 0;
            }
        }
    }

    /// Drop a slab from the freelist of `class` (e.g. it is now full or is
    /// morphing away). O(1): only the slab's `in_freelist` flag is
    /// cleared; the stale deque entry is discarded lazily when a pop
    /// reaches it (checked against the flag and the slab's current class).
    pub fn freelist_remove(&mut self, class: ClassId, off: PmOffset) {
        let _ = class;
        if let Some(vs) = self.slabs.get_mut(&off) {
            vs.in_freelist = false;
        }
    }

    /// Link a slab into its class freelist unless it already has a live
    /// entry there.
    pub fn freelist_push(&mut self, class: ClassId, off: PmOffset) {
        if let Some(vs) = self.slabs.get_mut(&off) {
            debug_assert_eq!(vs.class, class);
            if !vs.in_freelist {
                vs.in_freelist = true;
                self.freelist[class].push_back(off);
            }
        }
    }

    /// Whether `off` is logically linked in the freelist of `class`
    /// (deques may additionally hold stale entries awaiting lazy discard).
    #[allow(dead_code)] // exercised by the morph unit tests
    pub fn freelist_contains(&self, class: ClassId, off: PmOffset) -> bool {
        self.slabs.get(&off).is_some_and(|vs| vs.in_freelist && vs.class == class)
    }

    /// Fill `tcache` for `class` from freelist slabs until the tcache is
    /// full or the freelist is exhausted. Returns the number of blocks
    /// cached (§4.2: "the working thread will fill it until full using
    /// slabs from their corresponding freelist_slab").
    pub fn fill_tcache(
        &mut self,
        geoms: &GeometryTable,
        class: ClassId,
        tcache: &mut TCache,
    ) -> usize {
        let mut filled = 0;
        while !tcache.is_full(class) {
            let Some(&slab_off) = self.freelist[class].front() else { break };
            // Lazy discard: entries whose slab was removed, re-classed, or
            // logically unlinked (flag cleared) are stale.
            let Some(vs) =
                self.slabs.get_mut(&slab_off).filter(|v| v.in_freelist && v.class == class)
            else {
                self.freelist[class].pop_front();
                continue;
            };
            match vs.take_block() {
                Some(i) => {
                    let addr = vs.block_addr(i);
                    let stripe = geoms.of(class).bitmap.stripe_of(i);
                    let ok = tcache.push(class, addr, stripe);
                    debug_assert!(ok, "tcache was checked non-full");
                    filled += 1;
                    if vs.nfree == 0 {
                        vs.in_freelist = false;
                        self.freelist[class].pop_front();
                    }
                }
                None => {
                    vs.in_freelist = false;
                    self.freelist[class].pop_front();
                }
            }
        }
        if filled > 0 {
            if let Some(&slab_off) = self.freelist[class].front() {
                self.touch(slab_off);
            }
        }
        filled
    }

    /// Return one block to its slab (tcache overflow / flush / direct
    /// morph-free). Clears the volatile bit; re-links the slab into the
    /// freelist if it was full. Returns `true` if the slab is now
    /// completely free (caller should consider destroying it).
    pub fn return_block_to_slab(&mut self, slab_off: PmOffset, block_idx: usize) -> bool {
        let vs = self.slabs.get_mut(&slab_off).expect("slab exists");
        vs.release_block(block_idx);
        let class = vs.class;
        let free_now = vs.is_completely_free();
        self.freelist_push(class, slab_off);
        self.touch(slab_off);
        free_now
    }

    /// Unregister a completely-free slab, returning its vslab. O(1): any
    /// deque entry the slab still has goes stale (its offset no longer
    /// resolves in `slabs`) and is discarded lazily on pop.
    pub fn remove_slab(&mut self, off: PmOffset) -> VSlab {
        let mut vs = self.slabs.remove(&off).expect("slab exists");
        if vs.lru_token != 0 {
            self.lru.remove(&vs.lru_token);
        }
        vs.in_freelist = false;
        vs
    }

    /// Total bytes of live small blocks (persistent view is authoritative,
    /// but the volatile one is cheap and equals it whenever no tcaches hold
    /// blocks — used for utilisation reports).
    pub fn occupancy_histogram(&self, bins: &[f64]) -> Vec<usize> {
        let mut out = vec![0; bins.len() + 1];
        for vs in self.slabs.values() {
            let occ = vs.occupancy();
            let mut placed = false;
            for (i, b) in bins.iter().enumerate() {
                if occ <= *b {
                    out[i] += 1;
                    placed = true;
                    break;
                }
            }
            if !placed {
                *out.last_mut().expect("nonempty") += 1;
            }
        }
        out
    }
}

/// A per-core arena.
#[derive(Debug)]
pub struct Arena {
    /// Arena id (dense from 0).
    pub id: u32,
    /// Pool offset of the persistent arena state flag.
    pub flag_off: PmOffset,
    /// The arena's WAL region (per-thread micro-logs are carved from it).
    pub wal: WalRegion,
    /// Next micro-log index to hand to a joining thread.
    pub wal_next_micro: AtomicUsize,
    /// Slab structures, behind a lock that counts and times the
    /// allocator paths' acquisitions (refill, locked free).
    pub inner: TimedMutex<ArenaInner>,
    /// Deferred cross-arena frees (volatile bookkeeping only), drained by
    /// owner threads under `inner`.
    pub remote: RemoteFreeQueue,
    /// Number of threads currently assigned (least-loaded assignment).
    pub threads: AtomicUsize,
}

impl Arena {
    /// An arena over the WAL region `wal` — freshly formatted, or reopened
    /// for recovery: recovery reads the old entries first, and joining
    /// threads then restart at micro-log 0 and overwrite them slot by
    /// slot. `telemetry` enables the arena lock's statistics.
    pub fn new(id: u32, flag_off: PmOffset, wal: WalRegion, telemetry: bool) -> Self {
        Arena {
            id,
            flag_off,
            wal,
            wal_next_micro: AtomicUsize::new(0),
            inner: TimedMutex::new(ArenaInner::new(), telemetry),
            remote: RemoteFreeQueue::new(),
            threads: AtomicUsize::new(0),
        }
    }

    /// Persist the arena state flag.
    pub fn set_state(&self, pool: &PmemPool, t: &mut PmThread, state: u64) {
        pool.persist_u64(t, self.flag_off, state, nvalloc_pmem::FlushKind::Meta);
    }

    /// Read the persistent arena state flag.
    pub fn state(&self, pool: &PmemPool) -> u64 {
        pool.read_u64(self.flag_off)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::size_class::size_to_class;
    use nvalloc_pmem::{LatencyMode, PmemConfig, PmemPool};
    use std::sync::Arc;

    fn pool() -> Arc<PmemPool> {
        PmemPool::new(PmemConfig::default().pool_size(4 << 20).latency_mode(LatencyMode::Off))
    }

    fn make_slab(
        p: &PmemPool,
        t: &mut PmThread,
        g: &GeometryTable,
        off: PmOffset,
        class: ClassId,
    ) -> VSlab {
        VSlab::create(p, t, off, class, 0, g.of(class), false)
    }

    #[test]
    fn fill_tcache_from_one_slab() {
        let p = pool();
        let mut t = p.register_thread();
        let g = GeometryTable::new(6);
        let class = size_to_class(64).unwrap();
        let mut inner = ArenaInner::new();
        inner.add_slab(make_slab(&p, &mut t, &g, 0, class));
        let mut tc = TCache::new(6, 32);
        let n = inner.fill_tcache(&g, class, &mut tc);
        assert_eq!(n, 32);
        assert!(tc.is_full(class));
        let vs = &inner.slabs[&0];
        assert_eq!(vs.nfree, vs.nblocks - 32);
    }

    #[test]
    fn fill_tcache_spans_slabs_and_exhausts() {
        let p = pool();
        let mut t = p.register_thread();
        let g = GeometryTable::new(1);
        let class = crate::size_class::NUM_CLASSES - 1; // 3 blocks per slab
        let mut inner = ArenaInner::new();
        inner.add_slab(make_slab(&p, &mut t, &g, 0, class));
        inner.add_slab(make_slab(&p, &mut t, &g, 65536, class));
        let per_slab = inner.slabs[&0].nblocks;
        let mut tc = TCache::new(1, 64);
        let n = inner.fill_tcache(&g, class, &mut tc);
        assert_eq!(n, per_slab * 2, "both slabs drained");
        assert!(inner.freelist[class].is_empty());
        // Nothing left: further fills get zero.
        assert_eq!(inner.fill_tcache(&g, class, &mut tc), 0);
    }

    #[test]
    fn return_block_relinks_full_slab() {
        let p = pool();
        let mut t = p.register_thread();
        let g = GeometryTable::new(1);
        let class = crate::size_class::NUM_CLASSES - 1;
        let mut inner = ArenaInner::new();
        inner.add_slab(make_slab(&p, &mut t, &g, 0, class));
        let mut tc = TCache::new(1, 64);
        inner.fill_tcache(&g, class, &mut tc);
        assert!(inner.freelist[class].is_empty());
        let addr = tc.pop(class).unwrap();
        let idx = inner.slabs[&0].block_index(addr).unwrap();
        let now_free = inner.return_block_to_slab(0, idx);
        assert!(!now_free, "other blocks still cached");
        assert_eq!(inner.freelist[class].front(), Some(&0));
    }

    #[test]
    fn slab_becomes_completely_free() {
        let p = pool();
        let mut t = p.register_thread();
        let g = GeometryTable::new(1);
        let class = crate::size_class::NUM_CLASSES - 1;
        let mut inner = ArenaInner::new();
        inner.add_slab(make_slab(&p, &mut t, &g, 0, class));
        let mut tc = TCache::new(1, 64);
        inner.fill_tcache(&g, class, &mut tc);
        let mut last = false;
        while let Some(addr) = tc.pop(class) {
            let idx = inner.slabs[&0].block_index(addr).unwrap();
            last = inner.return_block_to_slab(0, idx);
        }
        assert!(last, "returning every block frees the slab");
        let vs = inner.remove_slab(0);
        assert!(vs.is_completely_free());
        assert!(inner.slabs.is_empty());
        assert!(inner.lru.is_empty());
    }

    #[test]
    fn lru_orders_by_access() {
        let p = pool();
        let mut t = p.register_thread();
        let g = GeometryTable::new(1);
        let class = size_to_class(64).unwrap();
        let mut inner = ArenaInner::new();
        inner.add_slab(make_slab(&p, &mut t, &g, 0, class));
        inner.add_slab(make_slab(&p, &mut t, &g, 65536, class));
        inner.add_slab(make_slab(&p, &mut t, &g, 131072, class));
        // Access slab 0 -> it becomes most recent; LRU head must be 65536.
        inner.touch(0);
        let head = *inner.lru.values().next().unwrap();
        assert_eq!(head, 65536);
        let tail = *inner.lru.values().next_back().unwrap();
        assert_eq!(tail, 0);
    }

    #[test]
    fn lru_remove_unlinks() {
        let p = pool();
        let mut t = p.register_thread();
        let g = GeometryTable::new(1);
        let class = size_to_class(64).unwrap();
        let mut inner = ArenaInner::new();
        inner.add_slab(make_slab(&p, &mut t, &g, 0, class));
        inner.lru_remove(0);
        assert!(inner.lru.is_empty());
        // Touching a slab with morph state must not re-add it.
        inner.slabs.get_mut(&0).unwrap().morph = Some(crate::slab::MorphState {
            old_class: 0,
            old_data_offset: 0,
            index_off: 0,
            index: vec![],
            cnt_slab: 0,
            cnt_block: vec![],
        });
        inner.touch(0);
        assert!(inner.lru.is_empty());
    }

    #[test]
    fn occupancy_histogram_bins() {
        let p = pool();
        let mut t = p.register_thread();
        let g = GeometryTable::new(1);
        let class = size_to_class(64).unwrap();
        let mut inner = ArenaInner::new();
        inner.add_slab(make_slab(&p, &mut t, &g, 0, class));
        let mut tc = TCache::new(1, 2048);
        inner.fill_tcache(&g, class, &mut tc); // near-full occupancy? cap 2048 > nblocks -> full
        let h = inner.occupancy_histogram(&[0.3, 0.7]);
        assert_eq!(h, vec![0, 0, 1], "fully drained slab is >70% occupied");
    }

    #[test]
    fn arena_state_flag_roundtrip() {
        let p = pool();
        let mut t = p.register_thread();
        let a = Arena::new(0, 512, WalRegion::create(&p, 4096, 16), true);
        assert_eq!(a.state(&p), 0);
        a.set_state(&p, &mut t, arena_state::RUNNING);
        assert_eq!(a.state(&p), arena_state::RUNNING);
        a.set_state(&p, &mut t, arena_state::NORMAL_SHUTDOWN);
        assert_eq!(a.state(&p), arena_state::NORMAL_SHUTDOWN);
    }
}
