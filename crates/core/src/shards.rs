//! Sharded large allocator: N independent [`LargeAlloc`] instances
//! ("region shards"), each owning a contiguous sub-heap, its own extent
//! freelists, and its own bookkeeping-log head, so extent-header updates
//! stay per-shard sequential appends (§5.3) instead of funnelling through
//! one global mutex.
//!
//! Published [`VehId`]s carry the owning shard's index in the bits above
//! [`VEH_LOCAL_BITS`], so a free routes straight to its shard without
//! consulting the address. Allocation starts at the caller's hint shard
//! (its arena id) and falls back round-robin to the others on
//! exhaustion; see [`ShardedLarge::shard_order`]. Each shard lock is a
//! [`TimedMutex`]: every counted acquisition first tries `try_lock` and
//! records a contention event when it has to block, which is what the
//! fig22 CI gate watches.
//!
//! Recovery rebuilds the shards one by one in ascending shard-index
//! order: each shard's bookkeeping log (or region-table slice) is
//! replayed independently, so the merged extent list is deterministic
//! regardless of how allocations from different shards interleaved
//! before the crash (DESIGN.md §9).

use std::sync::Arc;

use nvalloc_pmem::{PmError, PmOffset, PmResult, PmThread, PmemPool};

use crate::booklog::BookLogStats;
use crate::doctor::Violation;
use crate::large::{
    LargeAlloc, LargeConfig, RecoveredExtent, Veh, VehId, REGION_BYTES, VEH_LOCAL_BITS,
};
use crate::rtree::RTree;
use crate::size_class::SLAB_SIZE;
use crate::telemetry::{MetricsSnapshot, OpKind, TimedGuard, TimedMutex};

/// Upper bound on the shard count (the VehId tag field fits 256; 64 is
/// already past any arena count we simulate).
pub const MAX_SHARDS: usize = 64;

/// Smallest per-shard booklog slice worth operating (matches the
/// single-shard floor in `Layout::compute`).
pub const MIN_SHARD_BOOKLOG: usize = 64 << 10;

/// Smallest per-shard heap span: room for two 4 MB regions, so a shard
/// can always hold one slab-carving region plus one extent region.
pub const MIN_SHARD_HEAP: usize = 2 * REGION_BYTES;

/// N independent large-allocator shards, each lock with its statistics
/// beside it in one padded slot.
#[derive(Debug)]
pub(crate) struct ShardedLarge {
    shards: Vec<TimedMutex<LargeAlloc>>,
}

impl ShardedLarge {
    /// The shard index encoded in a published [`VehId`].
    #[inline]
    pub fn shard_of(id: VehId) -> usize {
        (id >> VEH_LOCAL_BITS) as usize
    }

    /// Split `base` (the whole large area) into `n` per-shard configs:
    /// disjoint heap spans (slab-aligned; the last shard takes the
    /// remainder), booklog slices (4 KB-aligned), region-table slices
    /// (8-byte aligned), a divided slow-GC threshold, and the shard tag.
    pub(crate) fn shard_cfgs(base: &LargeConfig, n: usize) -> Vec<LargeConfig> {
        assert!((1..=MAX_SHARDS).contains(&n) && n.is_power_of_two(), "bad shard count {n}");
        if n == 1 {
            let mut c = base.clone();
            c.shard_tag = 0;
            return vec![c];
        }
        let span = (base.heap_bytes / n) & !(SLAB_SIZE - 1);
        let bl = (base.booklog_bytes / n) & !4095;
        let rt = (base.region_table_bytes / n) & !7;
        assert!(span > 0 && (!base.log_bookkeeping || bl > 0), "shard slices must be non-empty");
        (0..n)
            .map(|i| {
                let last = i == n - 1;
                LargeConfig {
                    heap_base: base.heap_base + (i * span) as u64,
                    heap_bytes: if last { base.heap_bytes - (n - 1) * span } else { span },
                    booklog_base: base.booklog_base + (i * bl) as u64,
                    booklog_bytes: bl,
                    region_table_base: base.region_table_base + (i * rt) as u64,
                    region_table_bytes: rt,
                    slow_gc_threshold: (base.slow_gc_threshold / n).max(4096),
                    shard_tag: (i as u32) << VEH_LOCAL_BITS,
                    ..base.clone()
                }
            })
            .collect()
    }

    /// Create `n` fresh shards over the (empty) large area described by
    /// `base`; `telemetry` enables the shard locks' statistics.
    pub fn new(
        pool: &PmemPool,
        base: LargeConfig,
        n: usize,
        rtree: &Arc<RTree>,
        telemetry: bool,
    ) -> Self {
        let shards = Self::shard_cfgs(&base, n)
            .into_iter()
            .map(|c| TimedMutex::new(LargeAlloc::new(pool, c, Arc::clone(rtree)), telemetry))
            .collect();
        ShardedLarge { shards }
    }

    /// Recover all shards from a (possibly crashed) pool image. Shards
    /// are replayed in ascending index order and their live extents
    /// concatenated in that order, so the merge is deterministic. Reads
    /// the image only: the doctor takes its extent inventory from here.
    ///
    /// # Errors
    /// The first shard's [`LargeAlloc::recover`] violation.
    pub fn recover(
        pool: &PmemPool,
        base: LargeConfig,
        n: usize,
        rtree: &Arc<RTree>,
        telemetry: bool,
    ) -> Result<(Self, Vec<RecoveredExtent>), Violation> {
        let mut shards = Vec::with_capacity(n);
        let mut extents = Vec::new();
        for c in Self::shard_cfgs(&base, n) {
            let (la, mut ex) = LargeAlloc::recover(pool, c, Arc::clone(rtree))?;
            shards.push(TimedMutex::new(la, telemetry));
            extents.append(&mut ex);
        }
        Ok((ShardedLarge { shards }, extents))
    }

    /// Number of shards.
    #[inline]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Lock shard `i`: a counted [`TimedMutex::timed`] acquisition, traced
    /// when `pm` is given and traces (the `pm` borrow ends at return).
    pub fn lock(&self, i: usize, pm: Option<&PmThread>) -> TimedGuard<'_, LargeAlloc> {
        self.shards[i].timed(pm)
    }

    /// Lock the shard owning `id`; `None` for an id whose shard index is
    /// out of range (corrupt or foreign handle).
    pub fn lock_veh(&self, id: VehId, pm: Option<&PmThread>) -> Option<TimedGuard<'_, LargeAlloc>> {
        let idx = Self::shard_of(id);
        (idx < self.shards.len()).then(|| self.lock(idx, pm))
    }

    /// Allocation probe order: the hint shard (caller's arena id, wrapped
    /// to the shard count) first, then every other shard ascending —
    /// round-robin-with-fallback.
    pub fn shard_order(&self, hint: usize) -> impl Iterator<Item = usize> + use<> {
        let n = self.shards.len();
        let h = hint & (n - 1);
        std::iter::once(h).chain((0..n).filter(move |&i| i != h))
    }

    /// Free `id` in its owning shard (a counted, untraced acquisition).
    /// Ids with an out-of-range shard index fail like any other stale
    /// handle.
    pub fn free(&self, pool: &PmemPool, t: &mut PmThread, id: VehId) -> PmResult<()> {
        match self.lock_veh(id, None) {
            Some(mut g) => g.free(pool, t, id),
            None => Err(PmError::NotAllocated),
        }
    }

    /// Clone of the VEH behind a published id, if live.
    pub fn veh(&self, id: VehId) -> Option<Veh> {
        let idx = Self::shard_of(id);
        self.shards.get(idx)?.lock().veh(id).cloned()
    }

    /// Every active extent across all shards, in shard order.
    pub fn active_extents(&self) -> Vec<(VehId, PmOffset, bool)> {
        self.shards.iter().flat_map(|s| s.lock().active_extents()).collect()
    }

    /// Total mapped heap bytes across shards.
    pub fn mapped_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.lock().mapped_bytes()).sum()
    }

    /// Sum of per-shard mapped-bytes high-water marks (an upper bound on
    /// the true global peak, since shards peak independently).
    pub fn peak_mapped(&self) -> usize {
        self.shards.iter().map(|s| s.lock().peak_mapped()).sum()
    }

    /// Booklog statistics summed across shards (`None` when the booklog
    /// is disabled — the flag is uniform across shards).
    pub fn booklog_stats(&self) -> Option<BookLogStats> {
        let mut acc: Option<BookLogStats> = None;
        for s in &self.shards {
            if let Some(b) = s.lock().booklog_stats() {
                let a = acc.get_or_insert_with(BookLogStats::default);
                a.fast_gc_runs += b.fast_gc_runs;
                a.fast_gc_chunks += b.fast_gc_chunks;
                a.slow_gc_runs += b.slow_gc_runs;
                a.slow_gc_copied += b.slow_gc_copied;
                a.appends += b.appends;
                a.tombstones += b.tombstones;
                a.alt_flips += b.alt_flips;
            }
        }
        acc
    }

    /// Per-shard occupancy gauges for the timeline sampler, in shard
    /// order (uncounted raw locks, like the other observer aggregates).
    pub fn gauges(&self) -> Vec<crate::observe::ShardGauge> {
        self.shards.iter().map(|s| s.lock().gauge()).collect()
    }

    /// Add every shard's extent counters, slow-GC histogram and lock
    /// statistics into `s`, with the per-shard lock counts in shard order.
    pub fn fold_into(&self, s: &mut MetricsSnapshot) {
        for shard in &self.shards {
            let locks = shard.stats();
            locks.fold_into(s);
            s.large_shard_acquires.push(locks.acquires());
            s.large_shard_contended.push(locks.contended());
            let g = shard.lock();
            let st = g.stats();
            s.extent_best_fit += st.best_fit_hits;
            s.extent_splits += st.splits;
            s.extent_coalesces += st.coalesces;
            s.decay_epochs += st.decay_epochs;
            s.hists.hists[OpKind::SlowGc.index()].merge(&st.slow_gc_hist);
        }
        s.large_lock_acquires = s.large_shard_acquires.iter().sum();
        s.large_lock_contended = s.large_shard_contended.iter().sum();
    }

    /// Force a full decay pass on every shard.
    pub fn drain_free_lists(&self) {
        for s in &self.shards {
            s.lock().drain_free_lists();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvalloc_pmem::{LatencyMode, PmemConfig};

    fn base_cfg() -> LargeConfig {
        LargeConfig {
            heap_base: 8 << 20,
            heap_bytes: 120 << 20,
            log_bookkeeping: true,
            booklog_base: 4096,
            booklog_bytes: 4 << 20,
            booklog_stripes: 6,
            booklog_gc: true,
            slow_gc_threshold: 1 << 20,
            region_table_base: 6 << 20,
            region_table_bytes: 64 << 10,
            shard_tag: 0,
        }
    }

    fn setup(n: usize) -> (Arc<PmemPool>, ShardedLarge, PmThread) {
        let pool = PmemPool::new(
            PmemConfig::default().pool_size(128 << 20).latency_mode(LatencyMode::Off),
        );
        let t = pool.register_thread();
        let rtree = Arc::new(RTree::new());
        let sl = ShardedLarge::new(&pool, base_cfg(), n, &rtree, true);
        (pool, sl, t)
    }

    #[test]
    fn shard_cfgs_partition_the_area() {
        let base = base_cfg();
        let cfgs = ShardedLarge::shard_cfgs(&base, 4);
        assert_eq!(cfgs.len(), 4);
        // Heap spans: disjoint, ordered, covering exactly the base span.
        let mut cursor = base.heap_base;
        let mut total = 0usize;
        for (i, c) in cfgs.iter().enumerate() {
            assert_eq!(c.heap_base, cursor, "shard {i} heap must abut its predecessor");
            assert_eq!(c.heap_base % SLAB_SIZE as u64, 0);
            assert_eq!(c.shard_tag, (i as u32) << VEH_LOCAL_BITS);
            cursor += c.heap_bytes as u64;
            total += c.heap_bytes;
        }
        assert_eq!(total, base.heap_bytes, "spans must cover the whole heap");
        // Booklog slices: disjoint and within the base region.
        for w in cfgs.windows(2) {
            assert!(w[0].booklog_base + w[0].booklog_bytes as u64 <= w[1].booklog_base);
        }
        let last = cfgs.last().unwrap();
        assert!(
            last.booklog_base + last.booklog_bytes as u64
                <= base.booklog_base + base.booklog_bytes as u64
        );
    }

    #[test]
    fn single_shard_is_untagged_passthrough() {
        let cfgs = ShardedLarge::shard_cfgs(&base_cfg(), 1);
        assert_eq!(cfgs.len(), 1);
        assert_eq!(cfgs[0].shard_tag, 0);
        assert_eq!(cfgs[0].heap_bytes, base_cfg().heap_bytes);
    }

    #[test]
    fn ids_route_to_their_shard() {
        let (pool, sl, mut t) = setup(4);
        let mut ids = Vec::new();
        for s in 0..4 {
            let (id, off) = sl.lock(s, None).alloc(&pool, &mut t, 64 << 10, false).unwrap();
            assert_eq!(ShardedLarge::shard_of(id), s, "published id must carry shard {s}");
            assert!(off >= sl.lock(s, None).veh(id).unwrap().off);
            ids.push(id);
        }
        // Frees route by id: every one succeeds exactly once.
        for id in ids {
            sl.free(&pool, &mut t, id).unwrap();
            assert!(sl.free(&pool, &mut t, id).is_err(), "double free must fail");
        }
    }

    #[test]
    fn alloc_falls_back_across_shards() {
        let (pool, sl, mut t) = setup(2);
        // Exhaust shard 0 with 1 MB extents.
        let mut got0 = 0;
        loop {
            match sl.lock(0, None).alloc(&pool, &mut t, 1 << 20, false) {
                Ok(_) => got0 += 1,
                Err(PmError::OutOfMemory { .. }) => break,
                Err(e) => panic!("unexpected {e}"),
            }
            assert!(got0 < 10_000);
        }
        // The fallback order starting at shard 0 still finds room (in
        // shard 1).
        let order: Vec<usize> = sl.shard_order(0).collect();
        assert_eq!(order, vec![0, 1]);
        let mut served = None;
        for s in sl.shard_order(0) {
            if let Ok((id, _)) = sl.lock(s, None).alloc(&pool, &mut t, 1 << 20, false) {
                served = Some((s, id));
                break;
            }
        }
        let (s, id) = served.expect("shard 1 must have space");
        assert_eq!(s, 1);
        assert_eq!(ShardedLarge::shard_of(id), 1);
    }

    #[test]
    fn shard_order_covers_all_shards_once() {
        let (_pool, sl, _t) = setup(4);
        for hint in 0..8 {
            let mut order: Vec<usize> = sl.shard_order(hint).collect();
            assert_eq!(order[0], hint & 3, "hint shard first");
            order.sort_unstable();
            assert_eq!(order, vec![0, 1, 2, 3], "every shard exactly once");
        }
    }

    /// The shards' counters folded into an empty snapshot.
    fn folded(sl: &ShardedLarge) -> MetricsSnapshot {
        let mut s = MetricsSnapshot::default();
        sl.fold_into(&mut s);
        s
    }

    /// Per-shard (acquires, contended) counts.
    fn counts(sl: &ShardedLarge) -> (Vec<u64>, Vec<u64>) {
        let s = folded(sl);
        (s.large_shard_acquires, s.large_shard_contended)
    }

    #[test]
    fn lock_counters_track_acquires_and_contention() {
        let (pool, sl, mut t) = setup(2);
        let (id, _) = sl.lock(0, None).alloc(&pool, &mut t, 64 << 10, false).unwrap();
        sl.free(&pool, &mut t, id).unwrap();
        let (acq, cont) = counts(&sl);
        assert_eq!(acq[0], 2, "alloc + free on shard 0");
        assert_eq!(acq[1], 0, "shard 1 untouched");
        assert_eq!(cont, vec![0, 0], "uncontended run");
        // Hold shard 0 on another thread; a counted lock must register
        // contention.
        let sl = Arc::new(sl);
        let held = Arc::new(std::sync::Barrier::new(2));
        std::thread::scope(|s| {
            let sl2 = Arc::clone(&sl);
            let held2 = Arc::clone(&held);
            s.spawn(move || {
                let _g = sl2.shards[0].lock();
                held2.wait(); // holder in place
                std::thread::sleep(std::time::Duration::from_millis(20));
            });
            held.wait();
            let _g = sl.lock(0, None); // must block, then succeed
        });
        let (_, cont) = counts(&sl);
        assert_eq!(cont[0], 1, "blocking acquisition must count as contended");
    }

    #[test]
    fn lock_times_accumulate_wait_and_hold() {
        let (pool, sl, mut t) = setup(2);
        assert_eq!(folded(&sl).lock_wait_ns + folded(&sl).lock_hold_ns, 0, "fresh shards");
        {
            let mut g = sl.lock(0, None);
            g.alloc(&pool, &mut t, 64 << 10, false).unwrap();
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let s = folded(&sl);
        assert!(
            s.lock_hold_ns >= 1_000_000,
            "guard held ≥2 ms must register ({} ns)",
            s.lock_hold_ns
        );
        // The lock was free, so the acquisition waited 0 ns; both
        // histograms still carry exactly the one acquisition.
        assert_eq!(s.lock_wait_ns, 0, "an uncontended acquisition waits 0 ns");
        assert_eq!(s.lock_wait_hist.count(), 1);
        assert_eq!(s.lock_hold_hist.count(), 1);
        // A blocked acquisition accumulates real wait time.
        let sl = Arc::new(sl);
        let held = Arc::new(std::sync::Barrier::new(2));
        std::thread::scope(|sc| {
            let sl2 = Arc::clone(&sl);
            let held2 = Arc::clone(&held);
            sc.spawn(move || {
                let _g = sl2.lock(0, None);
                held2.wait();
                std::thread::sleep(std::time::Duration::from_millis(10));
            });
            held.wait();
            let _g = sl.lock(0, None);
        });
        let s2 = folded(&sl);
        assert!(
            s2.lock_wait_ns > s.lock_wait_ns + 1_000_000,
            "blocked lock must add ≥ the holder's sleep to wait"
        );
        assert_eq!(s2.lock_wait_hist.count(), 3, "three counted acquisitions in total");
    }

    #[test]
    fn aggregates_sum_across_shards() {
        let (pool, sl, mut t) = setup(4);
        for s in 0..4 {
            sl.lock(s, None).alloc(&pool, &mut t, 64 << 10, false).unwrap();
        }
        assert_eq!(sl.active_extents().len(), 4);
        assert_eq!(sl.mapped_bytes(), 4 * REGION_BYTES, "one region mapped per shard");
        let b = sl.booklog_stats().expect("log mode");
        assert_eq!(b.appends, 4, "one booklog append per shard");
    }

    #[test]
    fn recover_merges_shards_deterministically() {
        let (pool, sl, mut t) = setup(4);
        // Interleave allocations across shards in a scrambled order.
        let mut live = Vec::new();
        for (i, s) in [2usize, 0, 3, 1, 0, 2].iter().enumerate() {
            let (id, off) = sl.lock(*s, None).alloc(&pool, &mut t, (16 + i) << 10, false).unwrap();
            live.push((id, off));
        }
        drop(sl);
        let rtree = Arc::new(RTree::new());
        let recover_once = || {
            let (_sl, ex) =
                ShardedLarge::recover(&pool, base_cfg(), 4, &Arc::new(RTree::new()), true)
                    .expect("valid image");
            ex
        };
        let ex1 = recover_once();
        let ex2 = recover_once();
        assert_eq!(ex1, ex2, "recovery merge order must be deterministic");
        assert_eq!(ex1.len(), live.len());
        // Extents arrive grouped by ascending shard index.
        let shards_seen: Vec<usize> = ex1.iter().map(|e| ShardedLarge::shard_of(e.veh)).collect();
        let mut sorted = shards_seen.clone();
        sorted.sort_unstable();
        assert_eq!(shards_seen, sorted, "merge must be in shard order");
        // Every live extent survived with its offset.
        let (sl, _) =
            ShardedLarge::recover(&pool, base_cfg(), 4, &rtree, true).expect("valid image");
        for (id, off) in live {
            let v = sl.veh(id).expect("extent must survive recovery");
            assert_eq!(v.off, off);
        }
    }
}
