//! The large allocator (§4.3): extents from 16 KB to 2 MB, managed through
//! virtual extent headers (VEHs) in DRAM.
//!
//! VEHs move between three lists: **activated** (allocated extents),
//! **reclaimed** (freed, physical memory still mapped), and **retained**
//! (freed, physical memory unmapped — only the virtual reservation
//! remains). Allocation best-fit-searches reclaimed, then retained; misses
//! `mmap` a fresh 4 MB region and split it. Each free list is a fit index:
//! an exact bin per page count, walked upward under a bitmap of non-empty
//! bins, so a best fit visits extents in `(size, off)` order without a
//! tree walk. Freed extents coalesce with address-adjacent
//! reclaimed neighbours found through a page-indexed boundary table, as
//! jemalloc registers an extent's boundary pages.
//! A smootherstep *decay* schedule demotes reclaimed → retained → OS, as in
//! jemalloc (§2.2). It runs on a per-allocator *decay clock*: the largest
//! [`PmThread::virtual_ns`] any alloc, free or decay call has brought in,
//! so it is monotone across threads and across `reset_clock`, and a
//! same-seed run decays identically every time. Pools on
//! `LatencyMode::Off` never advance a virtual clock, so there extents
//! decay only through [`LargeAlloc::drain_free_lists`].
//!
//! Extent metadata persistence has two modes:
//!
//! * **In-place headers** (`log_bookkeeping = false`; the Base config and
//!   all baselines): each 4 MB region reserves a header area; every VEH
//!   change rewrites a 16 B slot there — the small *random* writes of §3.3.
//! * **Log-structured bookkeeping** (`log_bookkeeping = true`): changes
//!   append to the [`BookLog`] instead; in-place slots are never written.
//!
//! Objects larger than 2 MB bypass the lists: they get a dedicated mapping
//! and return straight to the OS on free (§4.3).

use std::collections::BTreeMap;
use std::sync::Arc;

use nvalloc_pmem::{FlushKind, PmError, PmOffset, PmResult, PmThread, PmemPool};

use crate::booklog::{BookEntry, BookLog, BookLogStats, EntryRef};
use crate::doctor::Violation;
use crate::rtree::{Owner, RTree};
use crate::size_class::SLAB_SIZE;
use crate::telemetry::LatencyHistogram;

/// Volatile telemetry counters for the extent allocator (merged into
/// [`crate::telemetry::MetricsSnapshot`] by the front end; recorded
/// unconditionally since the allocator is already under its lock and the
/// increments are plain integer adds).
#[derive(Debug, Clone, Copy, Default)]
pub struct LargeStats {
    /// Allocations served best-fit from the reclaimed/retained lists.
    pub best_fit_hits: u64,
    /// Head/tail remainders produced by carving an extent.
    pub splits: u64,
    /// Merges with address-adjacent reclaimed neighbours on free.
    pub coalesces: u64,
    /// Decay-schedule ticks executed.
    pub decay_epochs: u64,
    /// Latency of booklog slow-GC passes on the triggering thread's
    /// virtual clock.
    pub slow_gc_hist: LatencyHistogram,
}

/// Page granularity of extent sizes and addresses.
pub const PAGE: usize = 4096;
/// Region granularity requested from "mmap".
pub const REGION_BYTES: usize = 4 << 20;
/// Header area reserved at the start of each region in in-place mode.
pub const REGION_HEADER_BYTES: usize = 16 << 10;
/// Bytes per in-place header slot.
pub(crate) const HDR_SLOT_BYTES: usize = 16;
/// Extent-slot area of a region header (the rest holds the chunk map).
pub(crate) const HDR_SLOTS_BYTES: usize = 12 << 10;
/// Offset of the per-64 KB chunk map within a region header.
const CHUNK_MAP_OFF: usize = HDR_SLOTS_BYTES;
/// Chunk-map granule: the paper-era baselines keep *page-granular*
/// bookkeeping for large objects (nvm_malloc/Makalu page bitmaps, PMDK
/// chunk runs), so the metadata written for a large allocation scales
/// with its size — unlike NVAlloc's single 8 B log record (§3.3).
/// 2 B per 4 KB page.
const CHUNK_GRANULE: usize = 4 << 10;
/// Largest size served through the extent lists; bigger objects get a
/// dedicated mapping.
pub const HUGE_MIN: usize = 2 << 20;
/// Pages in a region: the largest extent an exact fit bin holds.
const REGION_PAGES: usize = REGION_BYTES / PAGE;
/// Decay-schedule tick interval on the decay clock (jemalloc's 50 ms).
const DECAY_TICK_NS: u64 = 50_000_000;
/// Smootherstep window over which a decaying list drains from its peak
/// to zero (10 s).
const DECAY_WINDOW_NS: u64 = 10_000_000_000;

/// A live extent found during recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveredExtent {
    /// VEH id in the recovered allocator.
    pub veh: VehId,
    /// Extent base offset.
    pub off: PmOffset,
    /// Extent size in bytes.
    pub size: usize,
    /// Whether the extent was registered as a slab.
    pub is_slab: bool,
}

/// State of an extent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExtentState {
    /// Allocated to a user (or serving as a slab).
    Active,
    /// Freed; physical memory still mapped.
    Reclaimed,
    /// Freed; physical memory unmapped, virtual reservation kept.
    Retained,
}

/// Identifier of a virtual extent header.
///
/// Published ids carry the owning shard's index in the bits above
/// [`VEH_LOCAL_BITS`] (see `crate::shards`); the low bits index the
/// shard's local VEH table. A single-shard allocator uses tag 0, so ids
/// are plain table indices there.
pub type VehId = u32;

/// Bits of a [`VehId`] that index a shard's local VEH table; bits above
/// carry the shard index.
pub const VEH_LOCAL_BITS: u32 = 24;
/// Mask selecting the local-index bits of a [`VehId`].
pub const VEH_LOCAL_MASK: u32 = (1 << VEH_LOCAL_BITS) - 1;

/// A virtual extent header (kept in DRAM; §4.3).
#[derive(Debug, Clone)]
pub struct Veh {
    /// Extent base offset.
    pub off: PmOffset,
    /// Extent size in bytes (page multiple).
    pub size: usize,
    /// Current list membership.
    pub state: ExtentState,
    /// True when the extent backs a small-allocator slab.
    pub is_slab: bool,
    /// Booklog entry describing this extent (log mode).
    book: Option<EntryRef>,
    /// In-place header slot (region index, slot index) (in-place mode).
    hdr: Option<(u32, u16)>,
    /// True for > 2 MB dedicated mappings.
    huge: bool,
}

/// 6t⁵ − 15t⁴ + 10t³: the smootherstep curve used by the decay schedule.
pub fn smootherstep(t: f64) -> f64 {
    let t = t.clamp(0.0, 1.0);
    t * t * t * (t * (t * 6.0 - 15.0) + 10.0)
}

#[derive(Debug)]
struct DecayList {
    /// Oldest-first queue of decaying extents. An extent that left the
    /// list keeps its entry until a tick reaches and skips it.
    queue: std::collections::VecDeque<VehId>,
    /// Bytes of the extents on the list: added when one joins, taken
    /// away whenever one leaves (decay, reuse, or a coalesce).
    bytes: usize,
    peak: usize,
    /// Decay-clock time at which `peak` was last raised.
    epoch_start: u64,
}

impl DecayList {
    fn new() -> Self {
        DecayList { queue: std::collections::VecDeque::new(), bytes: 0, peak: 0, epoch_start: 0 }
    }

    fn push(&mut self, id: VehId, size: usize, now: u64) {
        self.queue.push_back(id);
        self.bytes += size;
        if self.bytes > self.peak {
            self.peak = self.bytes;
            self.epoch_start = now;
        }
    }

    /// An extent of `size` bytes left the list.
    fn remove(&mut self, size: usize) {
        debug_assert!(self.bytes >= size, "decay list bytes undercount its extents");
        self.bytes = self.bytes.saturating_sub(size);
    }

    /// Bytes the list may still hold at decay-clock time `now`.
    fn threshold(&self, now: u64) -> usize {
        if self.peak == 0 {
            return 0;
        }
        let t = now.saturating_sub(self.epoch_start) as f64 / DECAY_WINDOW_NS as f64;
        (self.peak as f64 * (1.0 - smootherstep(t))) as usize
    }
}

/// The free extents of one list (reclaimed or retained), indexed for best
/// fit in `(size, off)` order: an exact bin per page count up to a region,
/// each ascending by offset, a bitmap of the non-empty bins, and one
/// ordered map for the rare extents coalesced past a region. The bins grow
/// on demand to the largest page count listed.
#[derive(Debug, Default)]
struct FitIndex {
    /// `bins[p]`: `(off, id)` of every listed extent of exactly `p` pages,
    /// ascending by offset.
    bins: Vec<Vec<(PmOffset, VehId)>>,
    /// Bit `p % 64` of word `p / 64` is set exactly when `bins[p]` is
    /// non-empty.
    nonempty: Vec<u64>,
    /// Extents larger than a region, by `(size, off)`.
    big: BTreeMap<(usize, PmOffset), VehId>,
    len: usize,
}

impl FitIndex {
    fn len(&self) -> usize {
        self.len
    }

    fn insert(&mut self, size: usize, off: PmOffset, id: VehId) {
        self.len += 1;
        let p = size / PAGE;
        if p > REGION_PAGES {
            self.big.insert((size, off), id);
            return;
        }
        if p >= self.bins.len() {
            self.bins.resize_with(p + 1, Vec::new);
            self.nonempty.resize(p / 64 + 1, 0);
        }
        let bin = &mut self.bins[p];
        // Recovery lists its gaps in address order: those append.
        match bin.last() {
            Some(&(last, _)) if last > off => {
                let at = bin.partition_point(|&(o, _)| o < off);
                bin.insert(at, (off, id));
            }
            _ => bin.push((off, id)),
        }
        self.nonempty[p / 64] |= 1 << (p % 64);
    }

    /// Take the extent of `size` bytes at `off` off the list.
    fn remove(&mut self, size: usize, off: PmOffset) -> Option<VehId> {
        let p = size / PAGE;
        let id = if p > REGION_PAGES {
            self.big.remove(&(size, off))?
        } else {
            let bin = self.bins.get_mut(p)?;
            let (_, id) = bin.remove(bin.binary_search_by_key(&off, |&(o, _)| o).ok()?);
            if bin.is_empty() {
                self.nonempty[p / 64] &= !(1 << (p % 64));
            }
            id
        };
        self.len -= 1;
        Some(id)
    }

    /// The first listed `(size, off)`, in `(size, off)` order, that holds
    /// an `align`-aligned body of `size` bytes.
    fn best_fit(&self, size: usize, align: usize) -> Option<(usize, PmOffset)> {
        let fits = |esize: usize, off: PmOffset| {
            LargeAlloc::aligned_body(off, esize, size, align).is_some()
        };
        let first = size / PAGE;
        let mut word = first / 64;
        let mut bits = self.nonempty.get(word).map_or(0, |w| w & (!0 << (first % 64)));
        while word < self.nonempty.len() {
            while bits != 0 {
                let p = word * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let esize = p * PAGE;
                if let Some(&(off, _)) = self.bins[p].iter().find(|&&(off, _)| fits(esize, off)) {
                    return Some((esize, off));
                }
            }
            word += 1;
            bits = self.nonempty.get(word).copied().unwrap_or(0);
        }
        self.big.range((size, 0)..).map(|(k, _)| *k).find(|&(esize, off)| fits(esize, off))
    }

    /// Every listed `(size, off, id)` in `(size, off)` order.
    #[cfg(test)]
    fn iter(&self) -> impl Iterator<Item = (usize, PmOffset, VehId)> + '_ {
        let bins = self.bins.iter().enumerate();
        bins.flat_map(|(p, bin)| bin.iter().map(move |&(off, id)| (p * PAGE, off, id)))
            .chain(self.big.iter().map(|(&(size, off), &id)| (size, off, id)))
    }
}

#[derive(Debug)]
struct HdrRegion {
    off: PmOffset,
    next_slot: u16,
    free_slots: Vec<u16>,
}

/// Configuration handed to [`LargeAlloc::new`] by the front end.
#[derive(Debug, Clone)]
pub struct LargeConfig {
    /// Start of the heap area extents are carved from.
    pub heap_base: PmOffset,
    /// Size of the heap area.
    pub heap_bytes: usize,
    /// Use the log-structured bookkeeping log.
    pub log_bookkeeping: bool,
    /// Booklog region base (log mode).
    pub booklog_base: PmOffset,
    /// Booklog region size.
    pub booklog_bytes: usize,
    /// Stripes for booklog entry interleaving.
    pub booklog_stripes: usize,
    /// Enable booklog GC.
    pub booklog_gc: bool,
    /// Slow-GC threshold in bytes.
    pub slow_gc_threshold: usize,
    /// Persistent region-table base (in-place mode: lets recovery find the
    /// 4 MB regions and their header areas).
    pub region_table_base: PmOffset,
    /// Region-table capacity in bytes (8 B count + 8 B per region).
    pub region_table_bytes: usize,
    /// Pre-shifted shard tag OR-ed into every [`VehId`] this allocator
    /// publishes (`shard_index << VEH_LOCAL_BITS`; 0 for a single
    /// shard). Lets the sharded front end route a tagged id back to its
    /// owning shard without consulting the address.
    pub shard_tag: u32,
}

/// The large allocator. Callers serialise access (the front end wraps it in
/// a mutex); `&mut self` methods reflect that.
#[derive(Debug)]
pub struct LargeAlloc {
    cfg: LargeConfig,
    rtree: Arc<RTree>,
    vehs: Vec<Option<Veh>>,
    veh_free: Vec<VehId>,
    /// Best-fit indexes of the two free lists.
    reclaimed: FitIndex,
    retained: FitIndex,
    /// Boundary table, one entry per page from `heap_base`: a listed
    /// extent's local id + 1 at its first and last page, 0 where none was
    /// written. Entries are never cleared; one left behind by a dropped,
    /// merged or reused id fails `coalesce`'s bounds and state check.
    /// Grows to the highest page a listed extent reaches.
    bounds: Vec<u32>,
    /// Unmapped ranges available for future "mmap"s (off → len).
    unmapped: BTreeMap<PmOffset, usize>,
    /// Bump pointer for fresh mappings.
    brk: PmOffset,
    heap_end: PmOffset,
    /// In-place header regions (in-place mode only).
    regions: Vec<HdrRegion>,
    booklog: Option<BookLog>,
    decay_reclaimed: DecayList,
    decay_retained: DecayList,
    /// The decay clock: the largest virtual time seen (see module docs).
    clock: u64,
    /// Decay-clock time of the last decay tick.
    last_tick: u64,
    mapped_bytes: usize,
    peak_mapped: usize,
    stats: LargeStats,
}

impl LargeAlloc {
    /// Create a fresh large allocator over an empty heap area.
    pub fn new(pool: &PmemPool, cfg: LargeConfig, rtree: Arc<RTree>) -> Self {
        let booklog = cfg.log_bookkeeping.then(|| {
            BookLog::create(
                pool,
                cfg.booklog_base,
                cfg.booklog_bytes,
                cfg.booklog_stripes,
                cfg.booklog_gc,
                cfg.slow_gc_threshold,
            )
        });
        LargeAlloc {
            brk: cfg.heap_base,
            heap_end: cfg.heap_base + cfg.heap_bytes as u64,
            cfg,
            rtree,
            vehs: Vec::new(),
            veh_free: Vec::new(),
            reclaimed: FitIndex::default(),
            retained: FitIndex::default(),
            bounds: Vec::new(),
            unmapped: BTreeMap::new(),
            regions: Vec::new(),
            booklog,
            decay_reclaimed: DecayList::new(),
            decay_retained: DecayList::new(),
            clock: 0,
            last_tick: 0,
            mapped_bytes: 0,
            peak_mapped: 0,
            stats: LargeStats::default(),
        }
    }

    /// Tag a local VEH index with this shard's tag for publication.
    #[inline]
    fn tag_id(&self, local: VehId) -> VehId {
        debug_assert_eq!(local & !VEH_LOCAL_MASK, 0);
        self.cfg.shard_tag | local
    }

    /// Strip the shard tag from a published id; `None` when the id
    /// belongs to a different shard (mis-routed free or stale handle).
    #[inline]
    fn local_id(&self, id: VehId) -> Option<VehId> {
        (id & !VEH_LOCAL_MASK == self.cfg.shard_tag).then_some(id & VEH_LOCAL_MASK)
    }

    #[inline]
    fn veh_local(&self, local: VehId) -> Option<&Veh> {
        self.vehs.get(local as usize).and_then(|v| v.as_ref())
    }

    /// Look up a VEH by its published (shard-tagged) id.
    pub fn veh(&self, id: VehId) -> Option<&Veh> {
        self.veh_local(self.local_id(id)?)
    }

    /// Bytes of heap currently mapped (active + reclaimed extents and
    /// region headers).
    pub fn mapped_bytes(&self) -> usize {
        self.mapped_bytes
    }

    /// High-water mark of [`LargeAlloc::mapped_bytes`].
    pub fn peak_mapped(&self) -> usize {
        self.peak_mapped
    }

    /// Every active extent: (tagged veh, offset, is_slab). Used by
    /// recovery GC.
    pub fn active_extents(&self) -> Vec<(VehId, PmOffset, bool)> {
        self.vehs
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.as_ref().map(|v| (i as VehId, v)))
            .filter(|(_, v)| v.state == ExtentState::Active)
            .map(|(i, v)| (self.tag_id(i), v.off, v.is_slab))
            .collect()
    }

    /// Booklog GC statistics, if the booklog is in use.
    pub fn booklog_stats(&self) -> Option<BookLogStats> {
        self.booklog.as_ref().map(|b| b.stats())
    }

    /// Point-in-time occupancy gauge for the timeline sampler (read-only;
    /// see [`crate::observe`]). Mirrors what the offline doctor derives
    /// from the persistent extent inventory, but from the volatile state,
    /// so a quiesced heap reports identical figures both ways.
    pub fn gauge(&self) -> crate::observe::ShardGauge {
        let mut g = crate::observe::ShardGauge {
            mapped_bytes: self.mapped_bytes as u64,
            free_extents: self.reclaimed.len() + self.retained.len(),
            ..Default::default()
        };
        for v in self.vehs.iter().flatten() {
            if v.state != ExtentState::Active {
                continue;
            }
            if v.is_slab {
                g.active_slabs += 1;
            } else {
                g.active_extents += 1;
                g.live_large_bytes += v.size as u64;
            }
            g.max_extent_end = g.max_extent_end.max(v.off + v.size as u64);
        }
        if let Some(b) = &self.booklog {
            g.booklog_live = b.live_entries() as u64;
            g.booklog_dead = (b.stats().appends).saturating_sub(g.booklog_live);
        }
        g
    }

    /// Extent-allocator telemetry counters.
    pub fn stats(&self) -> &LargeStats {
        &self.stats
    }

    /// The shared address radix tree.
    pub fn rtree(&self) -> &Arc<RTree> {
        &self.rtree
    }

    fn new_veh(&mut self, veh: Veh) -> VehId {
        debug_assert!(self.vehs.len() < VEH_LOCAL_MASK as usize, "shard VEH table full");
        if let Some(id) = self.veh_free.pop() {
            self.vehs[id as usize] = Some(veh);
            id
        } else {
            self.vehs.push(Some(veh));
            (self.vehs.len() - 1) as VehId
        }
    }

    fn drop_veh(&mut self, id: VehId) {
        self.vehs[id as usize] = None;
        self.veh_free.push(id);
    }

    /// Heap page holding `off`, counted from `heap_base`.
    fn page(&self, off: PmOffset) -> usize {
        ((off - self.cfg.heap_base) / PAGE as u64) as usize
    }

    /// Put extent `id` on the reclaimed list: its fit bin, its boundary
    /// pages, and the decay queue at decay-clock time `now`.
    fn reclaim(&mut self, id: VehId, now: u64) {
        let (off, size) = {
            let v = self.vehs[id as usize].as_ref().expect("live veh");
            (v.off, v.size)
        };
        self.reclaimed.insert(size, off, id);
        let (first, last) = (self.page(off), self.page(off + size as u64 - 1));
        if last >= self.bounds.len() {
            self.bounds.resize(last + 1, 0);
        }
        self.bounds[first] = id + 1;
        self.bounds[last] = id + 1;
        self.decay_reclaimed.push(id, size, now);
    }

    /// The reclaimed, non-huge extent whose boundary page is `page`
    /// and which satisfies `adjacent`, if the table names one there.
    fn reclaimed_at(
        &self,
        page: usize,
        adjacent: impl Fn(&Veh) -> bool,
    ) -> Option<(VehId, PmOffset, usize)> {
        let id = self.bounds.get(page)?.checked_sub(1)?;
        let v = self.veh_local(id)?;
        (v.state == ExtentState::Reclaimed && !v.huge && adjacent(v)).then_some((id, v.off, v.size))
    }

    fn add_mapped(&mut self, delta: isize) {
        self.mapped_bytes = (self.mapped_bytes as isize + delta) as usize;
        self.peak_mapped = self.peak_mapped.max(self.mapped_bytes);
    }

    // ----- persistent metadata (either mode) -----

    /// Record a VEH's current (off, size) persistently — booklog append in
    /// log mode, header-slot rewrite in in-place mode.
    fn persist_extent(&mut self, pool: &PmemPool, t: &mut PmThread, id: VehId) -> PmResult<()> {
        let (off, size, is_slab, book, hdr) = {
            let v = self.vehs[id as usize].as_ref().expect("live veh");
            (v.off, v.size, v.is_slab, v.book, v.hdr)
        };
        if self.booklog.is_some() {
            if let Some(old) = book {
                self.booklog.as_mut().expect("log").delete(pool, t, old)?;
            }
            let er = self.booklog.as_mut().expect("log").append(
                pool,
                t,
                BookEntry { addr: off, size: size as u32, is_slab },
            )?;
            self.vehs[id as usize].as_mut().expect("live veh").book = Some(er);
            self.maybe_slow_gc(pool, t)?;
        } else {
            let (region, slot) = match hdr {
                Some(h) => h,
                None => {
                    let h = self.acquire_hdr_slot(off);
                    self.vehs[id as usize].as_mut().expect("live veh").hdr = Some(h);
                    h
                }
            };
            let slot_off =
                self.regions[region as usize].off + (slot as usize * HDR_SLOT_BYTES) as u64;
            pool.write_u64(slot_off, off);
            pool.write_u64(slot_off + 8, (size as u64) << 8 | (is_slab as u64) << 1 | 1);
            pool.charge_store(t, slot_off, HDR_SLOT_BYTES);
            pool.flush(t, slot_off, HDR_SLOT_BYTES, FlushKind::Meta);
            // Chunk-granular bookkeeping: one in-place mark per 64 KB of
            // extent, scattered through the region header (the §3.3
            // write-amplification of chunk-mapped allocators; recovery
            // reads the slots, which stay authoritative).
            self.write_chunk_marks(pool, t, off, size, 1);
            pool.fence(t);
        }
        Ok(())
    }

    /// Write + flush one chunk-map entry per [`CHUNK_GRANULE`] of
    /// `[off, off+size)`, when the extent lies in a header region.
    fn write_chunk_marks(
        &self,
        pool: &PmemPool,
        t: &mut PmThread,
        off: PmOffset,
        size: usize,
        value: u16,
    ) {
        let Some(region) =
            self.regions.iter().find(|r| off >= r.off && off < r.off + REGION_BYTES as u64)
        else {
            return; // direct mappings outside regions carry no chunk map
        };
        let first = ((off - region.off) as usize) / CHUNK_GRANULE;
        let last = (((off + size as u64 - 1 - region.off) as usize) / CHUNK_GRANULE)
            .min(REGION_BYTES / CHUNK_GRANULE - 1);
        // All stores first, then one flush of the covered map range:
        // flushing after each mark would re-dirty a flushed-pending line
        // (an ordering-discipline violation pmsan flags) and eat the
        // reflush penalty on every entry sharing a cache line.
        for c in first..=last {
            pool.write_u16(region.off + (CHUNK_MAP_OFF + c * 2) as u64, value);
        }
        let base = region.off + (CHUNK_MAP_OFF + first * 2) as u64;
        let bytes = (last - first + 1) * 2;
        pool.charge_store(t, base, bytes);
        pool.flush(t, base, bytes, FlushKind::Meta);
    }

    /// Remove a VEH's persistent record.
    fn unpersist_extent(&mut self, pool: &PmemPool, t: &mut PmThread, id: VehId) -> PmResult<()> {
        let v = self.vehs[id as usize].as_mut().expect("live veh");
        if let Some(er) = v.book.take() {
            self.booklog.as_mut().expect("log mode").delete(pool, t, er)?;
            self.maybe_slow_gc(pool, t)?;
        } else if let Some((region, slot)) = v.hdr.take() {
            let (off, size) = {
                let v = self.vehs[id as usize].as_ref().expect("live veh");
                (v.off, v.size)
            };
            let slot_off =
                self.regions[region as usize].off + (slot as usize * HDR_SLOT_BYTES) as u64;
            pool.write_u64(slot_off + 8, 0);
            pool.charge_store(t, slot_off + 8, 8);
            pool.flush(t, slot_off + 8, 8, FlushKind::Meta);
            self.write_chunk_marks(pool, t, off, size, 0);
            pool.fence(t);
            self.regions[region as usize].free_slots.push(slot);
        }
        Ok(())
    }

    fn maybe_slow_gc(&mut self, pool: &PmemPool, t: &mut PmThread) -> PmResult<()> {
        let needs = self.booklog.as_ref().is_some_and(|b| b.needs_slow_gc());
        if !needs {
            return Ok(());
        }
        let span = t.span();
        let moves = self.booklog.as_mut().expect("booklog").slow_gc(pool, t)?;
        self.stats.slow_gc_hist.record(span.elapsed_ns(t));
        for veh in self.vehs.iter_mut().flatten() {
            if let Some(er) = veh.book {
                if let Some(new) = moves.get(&er) {
                    veh.book = Some(*new);
                }
            }
        }
        Ok(())
    }

    /// Find (or create) the in-place header region covering `off` and take
    /// a slot from it. `off` normally falls inside a region this allocator
    /// mapped; slot exhaustion falls back to any region with space
    /// (metadata for an extent may then live in a foreign region — still a
    /// random in-place write, which is the behaviour under study).
    fn acquire_hdr_slot(&mut self, off: PmOffset) -> (u32, u16) {
        let covering =
            self.regions.iter().position(|r| off >= r.off && off < r.off + REGION_BYTES as u64);
        let order: Vec<usize> = covering
            .into_iter()
            .chain((0..self.regions.len()).filter(|i| Some(*i) != covering))
            .collect();
        for i in order {
            let r = &mut self.regions[i];
            if let Some(s) = r.free_slots.pop() {
                return (i as u32, s);
            }
            if (r.next_slot as usize) < HDR_SLOTS_BYTES / HDR_SLOT_BYTES {
                let s = r.next_slot;
                r.next_slot += 1;
                return (i as u32, s);
            }
        }
        unreachable!("header regions can describe every extent they contain");
    }

    // ----- mapping -----

    /// Take a page-aligned range of exactly `len` bytes from the unmapped
    /// set or the bump pointer.
    fn map_range(&mut self, len: usize) -> PmResult<PmOffset> {
        debug_assert_eq!(len % PAGE, 0);
        // First fit over recycled ranges.
        let found = self.unmapped.iter().find(|(_, l)| **l >= len).map(|(o, l)| (*o, *l));
        if let Some((off, have)) = found {
            self.unmapped.remove(&off);
            if have > len {
                self.unmapped.insert(off + len as u64, have - len);
            }
            return Ok(off);
        }
        if self.brk + len as u64 > self.heap_end {
            return Err(PmError::OutOfMemory { requested: len });
        }
        let off = self.brk;
        self.brk += len as u64;
        Ok(off)
    }

    /// Return a range to the unmapped set, merging neighbours.
    fn unmap_range(&mut self, off: PmOffset, len: usize) {
        let mut off = off;
        let mut len = len;
        // Merge with predecessor.
        if let Some((&po, &pl)) = self.unmapped.range(..off).next_back() {
            if po + pl as u64 == off {
                self.unmapped.remove(&po);
                off = po;
                len += pl;
            }
        }
        // Merge with successor.
        if let Some(&sl) = self.unmapped.get(&(off + len as u64)) {
            self.unmapped.remove(&(off + len as u64));
            len += sl;
        }
        self.unmapped.insert(off, len);
    }

    /// "mmap" a fresh 4 MB region, register its header area (in-place
    /// mode), and return the usable data range.
    fn map_region(&mut self, pool: &PmemPool, t: &mut PmThread) -> PmResult<(PmOffset, usize)> {
        let off = self.map_range(REGION_BYTES)?;
        self.add_mapped(REGION_BYTES as isize);
        if self.cfg.log_bookkeeping {
            Ok((off, REGION_BYTES))
        } else {
            // Zero + persist the header area once at mapping time.
            pool.fill_bytes(off, REGION_HEADER_BYTES, 0);
            pool.charge_store(t, off, REGION_HEADER_BYTES);
            pool.flush(t, off, REGION_HEADER_BYTES, FlushKind::Meta);
            pool.fence(t);
            self.regions.push(HdrRegion { off, next_slot: 0, free_slots: Vec::new() });
            // Record the region in the persistent region table so recovery
            // can find its header slots.
            let n = self.regions.len() as u64;
            let cap = (self.cfg.region_table_bytes / 8).saturating_sub(1) as u64;
            assert!(n <= cap, "region table full ({n} regions)");
            // Slot first, count last: the count word is the commit point,
            // so it must never persist ahead of the entry it makes
            // reachable (a crash between the two would hand recovery a
            // garbage region pointer).
            pool.write_u64(self.cfg.region_table_base + n * 8, off);
            pool.charge_store(t, self.cfg.region_table_base + n * 8, 8);
            pool.flush(t, self.cfg.region_table_base + n * 8, 8, FlushKind::Meta);
            pool.fence(t);
            pool.persist_u64(t, self.cfg.region_table_base, n, FlushKind::Meta);
            Ok((off + REGION_HEADER_BYTES as u64, REGION_BYTES - REGION_HEADER_BYTES))
        }
    }

    // ----- public allocation API -----

    /// Allocate an extent of at least `size` bytes (page-rounded). Returns
    /// the VEH id and extent offset.
    ///
    /// # Errors
    /// [`PmError::OutOfMemory`] when the heap area is exhausted;
    /// [`PmError::InvalidRequest`] for zero-size requests.
    pub fn alloc(
        &mut self,
        pool: &PmemPool,
        t: &mut PmThread,
        size: usize,
        is_slab: bool,
    ) -> PmResult<(VehId, PmOffset)> {
        self.alloc_aligned(pool, t, size, PAGE, is_slab)
    }

    /// Allocate an extent of at least `size` bytes whose base is aligned to
    /// `align` (power of two ≥ page). Slab extents use 64 KB alignment so
    /// the small allocator can recover the slab base from any block
    /// address.
    ///
    /// # Errors
    /// Same as [`LargeAlloc::alloc`].
    pub fn alloc_aligned(
        &mut self,
        pool: &PmemPool,
        t: &mut PmThread,
        size: usize,
        align: usize,
        is_slab: bool,
    ) -> PmResult<(VehId, PmOffset)> {
        let (id, off) = self.alloc_reserve(pool, t, size, align, is_slab)?;
        self.commit_local(pool, t, id)?;
        Ok((self.tag_id(id), off))
    }

    /// Reserve an extent *without* persisting its metadata record or
    /// registering it in the rtree. The NVAlloc large path reserves, writes
    /// its WAL entry, and only then calls [`LargeAlloc::commit_extent`], so
    /// a crash between reservation and WAL leaves no persistent trace and
    /// a crash between WAL and commit is undone by replay (§4.4).
    ///
    /// # Errors
    /// Same as [`LargeAlloc::alloc`].
    pub fn alloc_deferred(
        &mut self,
        pool: &PmemPool,
        t: &mut PmThread,
        size: usize,
    ) -> PmResult<(VehId, PmOffset)> {
        self.alloc_deferred_aligned(pool, t, size, PAGE)
    }

    /// [`LargeAlloc::alloc_deferred`] with an explicit base alignment
    /// (power of two ≥ page). This is the oversize-alignment path of the
    /// `GlobalAlloc` front end: requests whose alignment exceeds what
    /// size-class padding can honour get a naturally aligned extent.
    ///
    /// # Errors
    /// Same as [`LargeAlloc::alloc`], plus [`PmError::InvalidRequest`]
    /// when `align` exceeds the page size on a huge (> [`HUGE_MIN`])
    /// request — huge extents are mapped page-aligned only; callers pad
    /// instead.
    pub fn alloc_deferred_aligned(
        &mut self,
        pool: &PmemPool,
        t: &mut PmThread,
        size: usize,
        align: usize,
    ) -> PmResult<(VehId, PmOffset)> {
        if align > PAGE && size.next_multiple_of(PAGE) > HUGE_MIN {
            return Err(PmError::InvalidRequest("huge extents are page-aligned only"));
        }
        let (id, off) = self.alloc_reserve(pool, t, size, align, false)?;
        Ok((self.tag_id(id), off))
    }

    /// Persist the metadata record of a reserved extent and register its
    /// base page in the rtree.
    ///
    /// # Errors
    /// Propagates booklog append failures.
    ///
    /// # Panics
    /// Panics if `id` carries another shard's tag.
    pub fn commit_extent(&mut self, pool: &PmemPool, t: &mut PmThread, id: VehId) -> PmResult<()> {
        let local = self.local_id(id).expect("commit of foreign-shard veh");
        self.commit_local(pool, t, local)
    }

    fn commit_local(&mut self, pool: &PmemPool, t: &mut PmThread, id: VehId) -> PmResult<()> {
        self.persist_extent(pool, t, id)?;
        let off = self.vehs[id as usize].as_ref().expect("live veh").off;
        self.register_base(off, id);
        Ok(())
    }

    /// Register an extent's base page, and only that page: every lookup
    /// that resolves an extent (free, `usable_size`, recovery's WAL replay
    /// and GC mark) accepts nothing but the base address, so an interior
    /// page that misses gives the same answer as one that names the
    /// extent. A slab's 16 pages are registered by the small allocator.
    fn register_base(&self, off: PmOffset, local: VehId) {
        self.rtree.insert_range(off, PAGE, Owner::Extent { veh: self.tag_id(local) }.pack());
    }

    fn alloc_reserve(
        &mut self,
        pool: &PmemPool,
        t: &mut PmThread,
        size: usize,
        align: usize,
        is_slab: bool,
    ) -> PmResult<(VehId, PmOffset)> {
        if size == 0 {
            return Err(PmError::InvalidRequest("zero-size extent"));
        }
        debug_assert!(align.is_power_of_two() && align >= PAGE);
        let size = size.next_multiple_of(PAGE);
        self.maybe_decay(t);

        if size > HUGE_MIN {
            debug_assert_eq!(align, PAGE, "huge allocations are page-aligned only");
            return self.huge_reserve(size, is_slab);
        }

        // Best fit: reclaimed, then retained (§4.3), requiring an aligned
        // body to fit.
        let candidate = self
            .reclaimed
            .best_fit(size, align)
            .map(|k| (k, true))
            .or_else(|| self.retained.best_fit(size, align).map(|k| (k, false)));

        let id = if let Some((key, was_reclaimed)) = candidate {
            self.stats.best_fit_hits += 1;
            let id = if was_reclaimed {
                self.decay_reclaimed.remove(key.0);
                self.reclaimed.remove(key.0, key.1).expect("candidate present")
            } else {
                self.decay_retained.remove(key.0);
                let id = self.retained.remove(key.0, key.1).expect("candidate present");
                // Re-mapping a retained extent brings its memory back.
                self.add_mapped(key.0 as isize);
                id
            };
            self.carve_aligned(id, size, align)
        } else {
            // No extent available: map a new region and carve it.
            let (base, avail) = self.map_region(pool, t)?;
            debug_assert!(SLAB_SIZE <= avail);
            let id = self.new_veh(Veh {
                off: base,
                size: avail,
                state: ExtentState::Reclaimed,
                is_slab: false,
                book: None,
                hdr: None,
                huge: false,
            });
            self.carve_aligned(id, size, align)
        };

        let v = self.vehs[id as usize].as_mut().expect("live veh");
        v.state = ExtentState::Active;
        v.is_slab = is_slab;
        let off = v.off;
        debug_assert_eq!(v.size, size);
        debug_assert_eq!(off % align as u64, 0);
        Ok((id, off))
    }

    fn aligned_body(off: PmOffset, esize: usize, size: usize, align: usize) -> Option<PmOffset> {
        let a = crate::align_up64(off, align as u64);
        (a + size as u64 <= off + esize as u64).then_some(a)
    }

    /// Trim extent `id` (not in any list) down to an `align`-aligned body
    /// of `size` bytes; head and tail remainders return to the reclaimed
    /// list. Returns the id of the body extent. Free extents have no
    /// persistent record: recovery infers them from the gaps between live
    /// extents (§4.4), so carving writes nothing.
    fn carve_aligned(&mut self, id: VehId, size: usize, align: usize) -> VehId {
        let (off, have) = {
            let v = self.vehs[id as usize].as_ref().expect("live veh");
            (v.off, v.size)
        };
        let body = Self::aligned_body(off, have, size, align).expect("candidate fits");
        let head = (body - off) as usize;
        let tail = have - head - size;
        // Reuse `id` for the body.
        if head > 0 {
            self.stats.splits += 1;
            let head_id = self.new_veh(Veh {
                off,
                size: head,
                state: ExtentState::Reclaimed,
                is_slab: false,
                book: None,
                hdr: None,
                huge: false,
            });
            self.reclaim(head_id, self.clock);
        }
        {
            let v = self.vehs[id as usize].as_mut().expect("live veh");
            v.off = body;
            v.size = size;
        }
        if tail > 0 {
            self.stats.splits += 1;
            let tail_off = body + size as u64;
            let tail_id = self.new_veh(Veh {
                off: tail_off,
                size: tail,
                state: ExtentState::Reclaimed,
                is_slab: false,
                book: None,
                hdr: None,
                huge: false,
            });
            self.reclaim(tail_id, self.clock);
        }
        id
    }

    fn huge_reserve(&mut self, size: usize, is_slab: bool) -> PmResult<(VehId, PmOffset)> {
        let off = self.map_range(size)?;
        self.add_mapped(size as isize);
        let id = self.new_veh(Veh {
            off,
            size,
            state: ExtentState::Active,
            is_slab,
            book: None,
            hdr: None,
            huge: true,
        });
        Ok((id, off))
    }

    /// Free extent `id`: move it to the reclaimed list and coalesce with
    /// adjacent reclaimed extents.
    ///
    /// # Errors
    /// [`PmError::NotAllocated`] if the extent is not active (double free).
    pub fn free(&mut self, pool: &PmemPool, t: &mut PmThread, id: VehId) -> PmResult<()> {
        let Some(id) = self.local_id(id) else { return Err(PmError::NotAllocated) };
        let (off, size, state, huge, is_slab) =
            match self.vehs.get(id as usize).and_then(|v| v.as_ref()) {
                Some(v) => (v.off, v.size, v.state, v.huge, v.is_slab),
                None => return Err(PmError::NotAllocated),
            };
        if state != ExtentState::Active {
            return Err(PmError::NotAllocated);
        }
        // Shard-identity gate: an extent whose body lies outside this
        // shard's heap span is corrupt or mis-routed, and unmapping it
        // here would hand this shard free space another shard owns —
        // silent cross-shard double-ownership. This used to be implied
        // (debug builds only, via the carve asserts); it is now a typed,
        // always-on refusal that the malloc shim escalates to an
        // abort-with-report.
        if off < self.cfg.heap_base || off + size as u64 > self.heap_end {
            return Err(PmError::ShardViolation {
                shard_base: self.cfg.heap_base,
                shard_end: self.heap_end,
                offset: off,
                len: size,
            });
        }
        self.unpersist_extent(pool, t, id)?;
        // An extent holds its base page; a slab frame holds all of its
        // pages, as `Owner::Slab` entries the small allocator wrote.
        self.rtree.remove_range(off, if is_slab { size } else { PAGE });

        if huge {
            self.drop_veh(id);
            self.unmap_range(off, size);
            self.add_mapped(-(size as isize));
            return Ok(());
        }

        {
            let v = self.vehs[id as usize].as_mut().expect("live veh");
            v.state = ExtentState::Reclaimed;
            v.is_slab = false;
        }
        let id = self.coalesce(id);
        let now = self.advance_clock(t);
        self.reclaim(id, now);
        self.maybe_decay(t);
        Ok(())
    }

    /// Merge `id` with address-adjacent *reclaimed* neighbours; returns the
    /// id of the merged extent. The boundary table names the candidates:
    /// the extent whose last page precedes `id`'s first, and the one whose
    /// first page follows `id`'s last. The caller lists the result.
    fn coalesce(&mut self, id: VehId) -> VehId {
        let (mut off, mut size) = {
            let v = self.vehs[id as usize].as_ref().expect("live veh");
            (v.off, v.size)
        };
        let mut id = id;
        let before = self.page(off).checked_sub(1);
        let pred = before.and_then(|p| self.reclaimed_at(p, |v| v.off + v.size as u64 == off));
        if let Some((pid, po, p_size)) = pred {
            let listed = self.reclaimed.remove(p_size, po);
            debug_assert_eq!(listed, Some(pid), "reclaimed predecessor off its list");
            self.decay_reclaimed.remove(p_size);
            self.drop_veh(id);
            let p = self.vehs[pid as usize].as_mut().expect("live veh");
            p.size += size;
            id = pid;
            off = po;
            size = p.size;
            self.stats.coalesces += 1;
        }
        let succ = off + size as u64;
        if let Some((sid, _, s_size)) = self.reclaimed_at(self.page(succ), |v| v.off == succ) {
            let listed = self.reclaimed.remove(s_size, succ);
            debug_assert_eq!(listed, Some(sid), "reclaimed successor off its list");
            self.decay_reclaimed.remove(s_size);
            self.drop_veh(sid);
            let v = self.vehs[id as usize].as_mut().expect("live veh");
            v.size += s_size;
            self.stats.coalesces += 1;
        }
        id
    }

    // ----- decay -----

    /// Bring the decay clock up to `t`'s virtual time (it never moves
    /// back) and return it.
    fn advance_clock(&mut self, t: &PmThread) -> u64 {
        self.clock = self.clock.max(t.virtual_ns());
        self.clock
    }

    /// Run the decay schedule if a tick interval has elapsed on the decay
    /// clock since the last tick (jemalloc's 50 ms, §2.2).
    pub fn maybe_decay(&mut self, t: &PmThread) {
        let now = self.advance_clock(t);
        if now - self.last_tick < DECAY_TICK_NS {
            return;
        }
        self.last_tick = now;
        self.decay_tick(now);
    }

    fn decay_tick(&mut self, now: u64) {
        self.stats.decay_epochs += 1;
        // Reclaimed → retained.
        let th = self.decay_reclaimed.threshold(now);
        while self.decay_reclaimed.bytes > th {
            let Some(id) = self.decay_reclaimed.queue.pop_front() else { break };
            // Skip ids that were coalesced away or re-activated.
            let Some(v) = self.vehs.get(id as usize).and_then(|v| v.as_ref()) else {
                continue;
            };
            if v.state != ExtentState::Reclaimed {
                continue;
            }
            let (off, size) = (v.off, v.size);
            let listed = self.reclaimed.remove(size, off);
            debug_assert_eq!(listed, Some(id), "reclaimed extent off its list");
            self.decay_reclaimed.remove(size);
            let v = self.vehs[id as usize].as_mut().expect("live veh");
            v.state = ExtentState::Retained;
            self.retained.insert(size, off, id);
            self.decay_retained.push(id, size, now);
            // Unmapping releases physical memory.
            self.add_mapped(-(size as isize));
        }
        if self.decay_reclaimed.bytes == 0 {
            self.decay_reclaimed.peak = 0;
        }

        // Retained → OS.
        let th = self.decay_retained.threshold(now);
        while self.decay_retained.bytes > th {
            let Some(id) = self.decay_retained.queue.pop_front() else { break };
            let Some(v) = self.vehs.get(id as usize).and_then(|v| v.as_ref()) else {
                continue;
            };
            if v.state != ExtentState::Retained {
                continue;
            }
            let (off, size) = (v.off, v.size);
            let listed = self.retained.remove(size, off);
            debug_assert_eq!(listed, Some(id), "retained extent off its list");
            self.decay_retained.remove(size);
            self.drop_veh(id);
            self.unmap_range(off, size);
        }
        if self.decay_retained.bytes == 0 {
            self.decay_retained.peak = 0;
        }
    }

    // ----- recovery -----

    /// Rebuild the large allocator from a (possibly crashed) pool image:
    /// the one parser of booklog entries and region-table slots, shared
    /// by recovery, the baselines and the doctor. It only reads the image.
    ///
    /// Live extents come from the bookkeeping log (log mode) or the
    /// region-table header slots (in-place mode); the space gaps between
    /// them become reclaimed extents (§4.4). Returns the rebuilt allocator
    /// and the recovered extents (the front end re-registers slabs).
    ///
    /// # Errors
    /// The first check the image fails, named as the doctor reports it,
    /// before any extent reaches the rtree: `booklog_chain`
    /// ([`BookLog::open`]); `region_table` (a region count past the
    /// table slice, or a region header off-page or outside the heap
    /// span); `extent_span`, `extent_size` and `slab_extent` (each extent
    /// must be whole pages inside the heap span, a slab one aligned slab);
    /// `extent_overlap` (live extents and region headers are disjoint).
    pub fn recover(
        pool: &PmemPool,
        cfg: LargeConfig,
        rtree: Arc<RTree>,
    ) -> Result<(Self, Vec<RecoveredExtent>), Violation> {
        let mut la = LargeAlloc::new_empty(cfg, rtree);
        let c = la.cfg.clone();
        if c.log_bookkeeping {
            let (log, entries) = BookLog::open(
                pool,
                c.booklog_base,
                c.booklog_bytes,
                c.booklog_stripes,
                c.booklog_gc,
                c.slow_gc_threshold,
            )?;
            la.booklog = Some(log);
            for (er, e) in entries {
                la.recover_extent(e.addr, e.size as usize, e.is_slab, Some(er), None)?;
            }
        } else {
            let shard = c.shard_tag >> VEH_LOCAL_BITS;
            let bad =
                |detail: String| Violation::new("region_table", format!("shard {shard}: {detail}"));
            let n = pool.read_u64(c.region_table_base);
            if n > (c.region_table_bytes as u64).saturating_sub(8) / 8 {
                return Err(bad(format!("region count {n} overflows its table slice")));
            }
            for r in 1..=n {
                let roff = pool.read_u64(c.region_table_base + r * 8);
                if !roff.is_multiple_of(PAGE as u64)
                    || roff < c.heap_base
                    || roff.checked_add(REGION_BYTES as u64).is_none_or(|end| end > la.heap_end)
                {
                    return Err(bad(format!("region header {roff:#x} outside heap span")));
                }
                let mut region = HdrRegion { off: roff, next_slot: 0, free_slots: Vec::new() };
                for s in 0..HDR_SLOTS_BYTES / HDR_SLOT_BYTES {
                    let slot_off = roff + (s * HDR_SLOT_BYTES) as u64;
                    let w1 = pool.read_u64(slot_off + 8);
                    if w1 & 1 == 1 {
                        let hdr = Some(((r - 1) as u32, s as u16));
                        let (off, is_slab) = (pool.read_u64(slot_off), w1 >> 1 & 1 == 1);
                        la.recover_extent(off, (w1 >> 8) as usize, is_slab, None, hdr)?;
                        region.next_slot = s as u16 + 1;
                    } else {
                        region.free_slots.push(s as u16);
                    }
                }
                // Free slots below the high-water mark are reusable.
                region.free_slots.retain(|&s| s < region.next_slot);
                la.regions.push(region);
            }
        }

        // Reconstruct brk: everything below the highest live byte (or
        // region end) is considered mapped heap.
        let mut ceiling = la.cfg.heap_base;
        for v in la.vehs.iter().flatten() {
            ceiling = ceiling.max(v.off + v.size as u64);
        }
        for r in &la.regions {
            ceiling = ceiling.max(r.off + REGION_BYTES as u64);
        }
        la.brk = crate::align_up64(ceiling, PAGE as u64);

        // Space gaps between live extents (and region headers) become
        // reclaimed extents, listed in address order; the same sorted pass
        // refuses overlaps.
        let mut blocked: Vec<(PmOffset, usize)> = la
            .vehs
            .iter()
            .flatten()
            .map(|v| (v.off, v.size))
            .chain(la.regions.iter().map(|r| (r.off, REGION_HEADER_BYTES)))
            .collect();
        blocked.sort_unstable();
        let mut prev = (la.cfg.heap_base, 0);
        let mut gaps = Vec::with_capacity(blocked.len() + 1);
        // `brk` bounds every extent: an empty end marker closes the last gap.
        for (off, size) in blocked.into_iter().chain([(la.brk, 0)]) {
            let cursor = prev.0 + prev.1 as u64;
            if off < cursor {
                return Err(Violation::new(
                    "extent_overlap",
                    format!("extents {:#x}+{:#x} and {off:#x} overlap", prev.0, prev.1),
                ));
            }
            if off > cursor {
                gaps.push((cursor, (off - cursor) as usize));
            }
            prev = (off, size);
        }
        if let Some(&(off, size)) = gaps.last() {
            la.bounds = vec![0; la.page(off + size as u64)];
        }
        for (off, size) in gaps {
            let gap = la.new_veh(Veh {
                off,
                size,
                state: ExtentState::Reclaimed,
                is_slab: false,
                book: None,
                hdr: None,
                huge: false,
            });
            la.reclaim(gap, 0);
        }

        // Accounting: everything up to brk is mapped.
        la.mapped_bytes = (la.brk - la.cfg.heap_base) as usize;
        la.peak_mapped = la.mapped_bytes;

        // Register live extents' base pages in the rtree; the front end
        // registers every page of a recovered slab as its slab owner
        // afterwards.
        let mut out = Vec::new();
        for (idx, v) in la.vehs.iter().enumerate() {
            let Some(v) = v else { continue };
            if v.state == ExtentState::Active {
                la.register_base(v.off, idx as VehId);
                out.push(RecoveredExtent {
                    veh: la.tag_id(idx as VehId),
                    off: v.off,
                    size: v.size,
                    is_slab: v.is_slab,
                });
            }
        }
        Ok((la, out))
    }

    /// Register one live extent recorded in the image, once it is whole
    /// pages inside this shard's heap span (a slab: one aligned slab).
    fn recover_extent(
        &mut self,
        off: PmOffset,
        size: usize,
        is_slab: bool,
        book: Option<EntryRef>,
        hdr: Option<(u32, u16)>,
    ) -> Result<(), Violation> {
        if off < self.cfg.heap_base
            || off.checked_add(size as u64).is_none_or(|end| end > self.heap_end)
        {
            return Err(Violation::new(
                "extent_span",
                format!(
                    "shard {}: extent {off:#x}+{size:#x} outside heap span [{:#x}, {:#x})",
                    self.cfg.shard_tag >> VEH_LOCAL_BITS,
                    self.cfg.heap_base,
                    self.heap_end
                ),
            ));
        }
        if size == 0 || !size.is_multiple_of(PAGE) || !off.is_multiple_of(PAGE as u64) {
            return Err(Violation::new(
                "extent_size",
                format!("extent {off:#x}+{size:#x} is not whole pages"),
            ));
        }
        if is_slab && (size != SLAB_SIZE || !off.is_multiple_of(SLAB_SIZE as u64)) {
            return Err(Violation::new(
                "slab_extent",
                format!("slab extent {off:#x}+{size:#x} not one aligned slab"),
            ));
        }
        let huge = size > HUGE_MIN;
        self.new_veh(Veh { off, size, state: ExtentState::Active, is_slab, book, hdr, huge });
        Ok(())
    }

    fn new_empty(cfg: LargeConfig, rtree: Arc<RTree>) -> Self {
        LargeAlloc {
            brk: cfg.heap_base,
            heap_end: cfg.heap_base + cfg.heap_bytes as u64,
            cfg,
            rtree,
            vehs: Vec::new(),
            veh_free: Vec::new(),
            reclaimed: FitIndex::default(),
            retained: FitIndex::default(),
            bounds: Vec::new(),
            unmapped: BTreeMap::new(),
            regions: Vec::new(),
            booklog: None,
            decay_reclaimed: DecayList::new(),
            decay_retained: DecayList::new(),
            clock: 0,
            last_tick: 0,
            mapped_bytes: 0,
            peak_mapped: 0,
            stats: LargeStats::default(),
        }
    }

    /// Force a full decay pass regardless of thresholds (shutdown, tests).
    pub fn drain_free_lists(&mut self) {
        self.decay_reclaimed.peak = 0;
        self.decay_retained.peak = 0;
        self.decay_tick(self.clock);
        // Second pass: extents demoted above may now retire fully.
        self.decay_retained.peak = 0;
        self.decay_tick(self.clock);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvalloc_pmem::{LatencyMode, PmemConfig};

    fn setup(log_mode: bool) -> (Arc<PmemPool>, LargeAlloc, PmThread) {
        let pool =
            PmemPool::new(PmemConfig::default().pool_size(80 << 20).latency_mode(LatencyMode::Off));
        let t = pool.register_thread();
        let cfg = LargeConfig {
            heap_base: 2 << 20,
            heap_bytes: 76 << 20,
            log_bookkeeping: log_mode,
            booklog_base: 4096,
            booklog_bytes: (1 << 20) - 4096,
            booklog_stripes: 6,
            booklog_gc: true,
            slow_gc_threshold: 4 << 10, // 4 chunks — small enough for tests to exercise slow GC
            region_table_base: 1 << 20,
            region_table_bytes: 64 << 10,
            shard_tag: 0,
        };
        let rtree = Arc::new(RTree::new());
        let la = LargeAlloc::new(&pool, cfg, rtree);
        (pool, la, t)
    }

    #[test]
    fn smootherstep_properties() {
        assert_eq!(smootherstep(0.0), 0.0);
        assert_eq!(smootherstep(1.0), 1.0);
        assert!(smootherstep(-1.0) == 0.0 && smootherstep(2.0) == 1.0);
        let mut prev = 0.0;
        for i in 0..=100 {
            let v = smootherstep(i as f64 / 100.0);
            assert!(v >= prev, "must be monotone");
            prev = v;
        }
        assert!((smootherstep(0.5) - 0.5).abs() < 1e-12, "symmetric at midpoint");
    }

    #[test]
    fn alloc_free_roundtrip_both_modes() {
        for mode in [true, false] {
            let (pool, mut la, mut t) = setup(mode);
            let (id, off) = la.alloc(&pool, &mut t, 100 << 10, false).unwrap();
            assert_eq!(off % PAGE as u64, 0);
            let v = la.veh(id).unwrap();
            assert_eq!(v.size, 100 << 10);
            assert_eq!(v.state, ExtentState::Active);
            la.free(&pool, &mut t, id).unwrap();
            assert!(la.free(&pool, &mut t, id).is_err(), "double free must fail");
        }
    }

    #[test]
    fn freed_extent_is_reused() {
        let (pool, mut la, mut t) = setup(true);
        let (id, off) = la.alloc(&pool, &mut t, 64 << 10, false).unwrap();
        la.free(&pool, &mut t, id).unwrap();
        let (_, off2) = la.alloc(&pool, &mut t, 64 << 10, false).unwrap();
        assert_eq!(off, off2, "best-fit should reuse the freed extent");
    }

    #[test]
    fn best_fit_prefers_snuggest_extent() {
        let (pool, mut la, mut t) = setup(true);
        let (a, _) = la.alloc(&pool, &mut t, 256 << 10, false).unwrap();
        let (_b, _) = la.alloc(&pool, &mut t, 32 << 10, false).unwrap();
        let (c, off_c) = la.alloc(&pool, &mut t, 64 << 10, false).unwrap();
        let (_d, _) = la.alloc(&pool, &mut t, 32 << 10, false).unwrap();
        // Free the 256 K and 64 K extents; a 60 K request must take the 64 K.
        la.free(&pool, &mut t, a).unwrap();
        la.free(&pool, &mut t, c).unwrap();
        let (_, off) = la.alloc(&pool, &mut t, 60 << 10, false).unwrap();
        assert_eq!(off, off_c);
    }

    #[test]
    fn adjacent_frees_coalesce() {
        let (pool, mut la, mut t) = setup(true);
        let (a, off_a) = la.alloc(&pool, &mut t, 64 << 10, false).unwrap();
        let (b, off_b) = la.alloc(&pool, &mut t, 64 << 10, false).unwrap();
        let (_guard, _) = la.alloc(&pool, &mut t, 64 << 10, false).unwrap();
        assert_eq!(off_b, off_a + (64 << 10));
        la.free(&pool, &mut t, a).unwrap();
        la.free(&pool, &mut t, b).unwrap();
        // A 128 K request must fit the coalesced extent at off_a.
        let (_, off) = la.alloc(&pool, &mut t, 128 << 10, false).unwrap();
        assert_eq!(off, off_a);
    }

    #[test]
    fn split_leaves_usable_remainder() {
        let (pool, mut la, mut t) = setup(true);
        let (_, off1) = la.alloc(&pool, &mut t, 20 << 10, false).unwrap();
        let (_, off2) = la.alloc(&pool, &mut t, 20 << 10, false).unwrap();
        // Both should come from the same 4 MB region.
        assert_eq!(off2, off1 + (20 << 10));
    }

    #[test]
    fn huge_objects_bypass_lists() {
        let (pool, mut la, mut t) = setup(true);
        let (id, off) = la.alloc(&pool, &mut t, 3 << 20, false).unwrap();
        assert!(la.veh(id).unwrap().huge);
        let mapped = la.mapped_bytes();
        la.free(&pool, &mut t, id).unwrap();
        assert_eq!(la.mapped_bytes(), mapped - (3 << 20));
        // The range is recycled for the next huge alloc.
        let (_, off2) = la.alloc(&pool, &mut t, 3 << 20, false).unwrap();
        assert_eq!(off, off2);
    }

    #[test]
    fn rtree_tracks_active_extents() {
        let (pool, mut la, mut t) = setup(true);
        let rtree = Arc::clone(la.rtree());
        let (id, off) = la.alloc(&pool, &mut t, 64 << 10, false).unwrap();
        match Owner::unpack(rtree.lookup(off + 100).unwrap()) {
            Owner::Extent { veh } => assert_eq!(veh, id),
            o => panic!("wrong owner {o:?}"),
        }
        // Only the base page is registered: every other page misses.
        for page in 1..16u64 {
            assert_eq!(rtree.lookup(off + page * PAGE as u64), None, "page {page}");
        }
        la.free(&pool, &mut t, id).unwrap();
        assert!(rtree.lookup(off).is_none(), "freed extent must leave the rtree");
    }

    /// A slab frame carries its 16 `Owner::Slab` pages (the front end
    /// writes them); freeing the frame clears all of them, so an extent
    /// later carved over the frame resolves at its base page only.
    #[test]
    fn freed_slab_frame_leaves_no_stale_pages() {
        let (pool, mut la, mut t) = setup(true);
        let rtree = Arc::clone(la.rtree());
        let (frame, off) = la.alloc_aligned(&pool, &mut t, SLAB_SIZE, SLAB_SIZE, true).unwrap();
        let slab = Owner::Slab { slab: off, arena: 0 }.pack();
        rtree.insert_range(off, SLAB_SIZE, slab);
        let pages = (SLAB_SIZE / PAGE) as u64;
        for page in 0..pages {
            assert_eq!(rtree.lookup(off + page * PAGE as u64), Some(slab), "page {page}");
        }
        la.free(&pool, &mut t, frame).unwrap();
        for page in 0..pages {
            assert_eq!(rtree.lookup(off + page * PAGE as u64), None, "page {page}");
        }
        let (id, reused) = la.alloc(&pool, &mut t, SLAB_SIZE, false).unwrap();
        assert_eq!(reused, off, "the extent reuses the freed frame");
        assert_eq!(rtree.lookup(off).map(Owner::unpack), Some(Owner::Extent { veh: id }));
        for page in 1..pages {
            assert_eq!(rtree.lookup(off + page * PAGE as u64), None, "page {page}");
        }
    }

    #[test]
    fn shard_tag_routes_ids() {
        let (pool, mut la, mut t) = setup(true);
        la.cfg.shard_tag = 3 << VEH_LOCAL_BITS;
        let (id, off) = la.alloc(&pool, &mut t, 64 << 10, false).unwrap();
        assert_eq!(id >> VEH_LOCAL_BITS, 3, "published ids carry the shard tag");
        assert!(la.veh(id).is_some());
        assert!(la.veh(id & VEH_LOCAL_MASK).is_none(), "untagged id must not resolve");
        // The rtree handle carries the tag too, so free-by-address routes.
        match Owner::unpack(la.rtree().lookup(off).unwrap()) {
            Owner::Extent { veh } => assert_eq!(veh, id),
            o => panic!("wrong owner {o:?}"),
        }
        // A free carrying the wrong shard tag is rejected; the right one works.
        assert!(la.free(&pool, &mut t, id & VEH_LOCAL_MASK).is_err());
        la.free(&pool, &mut t, id).unwrap();
    }

    #[test]
    fn free_refuses_extent_outside_shard_span() {
        let (pool, mut la, mut t) = setup(true);
        let (id, _) = la.alloc(&pool, &mut t, 64 << 10, false).unwrap();
        // Corrupt the VEH so its body sits below the shard's heap span —
        // exactly what a cross-shard mix-up or trashed table produces.
        let forged = la.cfg.heap_base - (64 << 10);
        la.vehs[id as usize].as_mut().unwrap().off = forged;
        match la.free(&pool, &mut t, id) {
            Err(PmError::ShardViolation { shard_base, offset, len, .. }) => {
                assert_eq!(shard_base, la.cfg.heap_base);
                assert_eq!(offset, forged);
                assert_eq!(len, 64 << 10);
            }
            r => panic!("expected ShardViolation, got {r:?}"),
        }
        // The refusal must leave the extent untouched (no unmap happened).
        assert_eq!(la.veh(id).unwrap().state, ExtentState::Active);
    }

    #[test]
    fn aligned_deferred_reserve_honours_alignment() {
        let (pool, mut la, mut t) = setup(true);
        // Misalign the carve cursor first.
        la.alloc(&pool, &mut t, 12 << 10, false).unwrap();
        let (id, off) = la.alloc_deferred_aligned(&pool, &mut t, 20 << 10, 64 << 10).unwrap();
        assert_eq!(off % (64 << 10), 0, "base must honour the requested alignment");
        la.commit_extent(&pool, &mut t, id).unwrap();
        la.free(&pool, &mut t, id).unwrap();
        // Huge + oversize alignment is refused (callers pad instead).
        assert!(matches!(
            la.alloc_deferred_aligned(&pool, &mut t, (2 << 20) + PAGE, 8192),
            Err(PmError::InvalidRequest(_))
        ));
    }

    #[test]
    fn mapped_accounting_tracks_regions() {
        let (pool, mut la, mut t) = setup(true);
        assert_eq!(la.mapped_bytes(), 0);
        la.alloc(&pool, &mut t, 64 << 10, false).unwrap();
        assert_eq!(la.mapped_bytes(), REGION_BYTES);
        la.alloc(&pool, &mut t, 64 << 10, false).unwrap();
        assert_eq!(la.mapped_bytes(), REGION_BYTES, "second alloc reuses the region");
        assert_eq!(la.peak_mapped(), REGION_BYTES);
    }

    #[test]
    fn inplace_mode_writes_header_slots() {
        let (pool, mut la, mut t) = setup(false);
        pool.stats().reset();
        let (id, _) = la.alloc(&pool, &mut t, 64 << 10, false).unwrap();
        let s = pool.stats().snapshot();
        assert!(s.flushes_of(FlushKind::Meta) > 0, "in-place mode must flush metadata");
        assert_eq!(s.flushes_of(FlushKind::BookLog), 0);
        assert!(la.veh(id).unwrap().hdr.is_some());
    }

    #[test]
    fn log_mode_appends_instead() {
        let (pool, mut la, mut t) = setup(true);
        pool.stats().reset();
        let (id, _) = la.alloc(&pool, &mut t, 64 << 10, false).unwrap();
        let s = pool.stats().snapshot();
        assert!(s.flushes_of(FlushKind::BookLog) > 0);
        assert_eq!(s.flushes_of(FlushKind::Meta), 0, "log mode must not write headers");
        assert!(la.veh(id).unwrap().book.is_some());
    }

    #[test]
    fn exhaustion_reports_oom() {
        let (pool, mut la, mut t) = setup(true);
        let mut n = 0;
        loop {
            match la.alloc(&pool, &mut t, 1 << 20, false) {
                Ok(_) => n += 1,
                Err(PmError::OutOfMemory { .. }) => break,
                Err(e) => panic!("unexpected error {e}"),
            }
            assert!(n < 10_000, "must eventually exhaust");
        }
        assert!(n >= 60, "should fit ~76 one-MB extents, got {n}");
    }

    #[test]
    fn slow_gc_relocation_keeps_vehs_consistent() {
        let (pool, mut la, mut t) = setup(true);
        let mut ids = Vec::new();
        for i in 0..500 {
            let (id, _) = la.alloc(&pool, &mut t, 16 << 10, false).unwrap();
            ids.push(id);
            if i % 3 == 0 {
                let id = ids.remove(0);
                la.free(&pool, &mut t, id).unwrap();
            }
        }
        assert!(
            la.booklog_stats().unwrap().slow_gc_runs > 0,
            "threshold was sized to force slow GCs"
        );
        // All survivors can still be freed (their EntryRefs stayed valid
        // across the relocations).
        for id in ids {
            la.free(&pool, &mut t, id).unwrap();
        }
    }

    #[test]
    fn decay_demotes_and_releases() {
        let (pool, mut la, mut t) = setup(true);
        let (id, _) = la.alloc(&pool, &mut t, 1 << 20, false).unwrap();
        la.free(&pool, &mut t, id).unwrap();
        let mapped_before = la.mapped_bytes();
        la.drain_free_lists();
        assert!(
            la.mapped_bytes() < mapped_before,
            "drain must unmap reclaimed extents ({} !< {})",
            la.mapped_bytes(),
            mapped_before
        );
    }

    /// Fill one region with four 1 MiB extents and free two
    /// non-adjacent ones at decay-clock time 0, on a fresh schedule (the
    /// carves' split remainders are dropped from it). Returns the
    /// allocator with 2 MiB reclaimed.
    fn two_reclaimed_mib() -> (Arc<PmemPool>, LargeAlloc, PmThread) {
        let (pool, mut la, mut t) = setup(true);
        let ids: Vec<VehId> =
            (0..4).map(|_| la.alloc(&pool, &mut t, 1 << 20, false).unwrap().0).collect();
        assert_eq!(la.reclaimed.len(), 0, "four 1 MiB extents fill the region");
        la.decay_reclaimed = DecayList::new();
        la.free(&pool, &mut t, ids[0]).unwrap();
        la.free(&pool, &mut t, ids[2]).unwrap();
        assert_eq!((la.clock, la.decay_reclaimed.bytes), (0, 2 << 20));
        (pool, la, t)
    }

    #[test]
    fn decay_demotes_half_at_half_the_window() {
        let (_pool, mut la, _t) = two_reclaimed_mib();
        let mapped = la.mapped_bytes();
        la.decay_tick(DECAY_WINDOW_NS / 2);
        // smootherstep(0.5) = 0.5: the threshold is half the 2 MiB peak,
        // so exactly one 1 MiB extent moves to retained (and unmaps).
        assert_eq!((la.reclaimed.len(), la.retained.len()), (1, 1));
        assert_eq!(la.mapped_bytes(), mapped - (1 << 20));
        la.decay_tick(DECAY_WINDOW_NS);
        assert_eq!(la.reclaimed.len(), 0, "the full window drains the reclaimed list");
    }

    #[test]
    fn decay_ignores_wall_time() {
        let (_pool, mut la, t) = two_reclaimed_mib();
        let mapped = la.mapped_bytes();
        // Longer than a tick of wall time, but no virtual time elapses
        // (the pool's latency mode is Off).
        std::thread::sleep(std::time::Duration::from_millis(60));
        la.maybe_decay(&t);
        la.decay_tick(la.clock);
        assert_eq!((la.reclaimed.len(), la.retained.len()), (2, 0));
        assert_eq!(la.mapped_bytes(), mapped);
    }

    /// Each decay list counts exactly the bytes of the extents on it,
    /// through best-fit reuse from either list, coalescing, and decay.
    #[test]
    fn decay_bytes_count_exactly_the_listed_extents() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let (pool, mut la, mut t) = setup(true);
        let listed = |m: &FitIndex| m.iter().map(|(size, _, _)| size).sum::<usize>();
        let mut rng = SmallRng::seed_from_u64(0x5eed_dec4);
        let mut live: Vec<VehId> = Vec::new();
        let mut now = 0;
        for op in 0..2000 {
            if live.len() >= 24 || (!live.is_empty() && rng.gen_bool(0.5)) {
                let id = live.swap_remove(rng.gen_range(0..live.len()));
                la.free(&pool, &mut t, id).unwrap();
            } else {
                let size = rng.gen_range(64 << 10..320 << 10);
                live.push(la.alloc(&pool, &mut t, size, false).unwrap().0);
            }
            if op % 100 == 99 {
                // The pool's clock is off: step the decay schedule by hand
                // so extents move to the retained list and back out.
                now += DECAY_WINDOW_NS / 4;
                la.decay_tick(now);
            }
            assert_eq!(la.decay_reclaimed.bytes, listed(&la.reclaimed), "op {op}: reclaimed");
            assert_eq!(la.decay_retained.bytes, listed(&la.retained), "op {op}: retained");
        }
        assert!(la.stats().coalesces > 0 && la.stats().best_fit_hits > 0);
    }

    /// Boundary-table entries that name no listed extent at its first or
    /// last page: left behind by dropped, merged, reused or re-activated
    /// ids.
    fn stale_bounds(la: &LargeAlloc) -> usize {
        let names = |p: usize, v: &Veh| {
            v.state != ExtentState::Active
                && (la.page(v.off) == p || la.page(v.off + v.size as u64 - 1) == p)
        };
        let entries = la.bounds.iter().enumerate().filter(|&(_, &e)| e != 0);
        entries.filter(|&(p, &e)| !la.veh_local(e - 1).is_some_and(|v| names(p, v))).count()
    }

    /// After every free, the merge `coalesce` chose matches a brute-force
    /// scan of every VEH for touching, reclaimed, non-huge neighbours,
    /// while ids are reused through coalescing, decay to the OS and huge
    /// frees, so the boundary table holds entries for ids that no longer
    /// own those pages.
    #[test]
    fn coalesce_matches_a_brute_force_neighbour_scan() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        for log in [true, false] {
            let (pool, mut la, mut t) = setup(log);
            let mut rng = SmallRng::seed_from_u64(0x000b_00d5_ca11);
            let mut live: Vec<VehId> = Vec::new();
            let mut issued = std::collections::HashSet::new();
            let (mut reused, mut huge_frees, mut stale, mut unmapped) = (0, 0, 0, 0);
            let mut now = 0;
            for op in 0..3000 {
                if live.len() >= 32 || (!live.is_empty() && rng.gen_bool(0.5)) {
                    let id = live.swap_remove(rng.gen_range(0..live.len()));
                    let v = la.veh(id).expect("live extent").clone();
                    let (off, end) = (v.off, v.off + v.size as u64);
                    let free = |w: &&Veh| w.state == ExtentState::Reclaimed && !w.huge;
                    let mut vehs = la.vehs.iter().flatten().filter(free);
                    let pred = vehs.clone().find(|w| w.off + w.size as u64 == off).map(|w| w.off);
                    let succ = vehs.find(|w| w.off == end).map(|w| w.off + w.size as u64);
                    let merges = la.stats().coalesces;
                    la.free(&pool, &mut t, id).unwrap();
                    let merged = la.stats().coalesces - merges;
                    if v.huge {
                        huge_frees += 1;
                        assert_eq!(merged, 0, "op {op}: a huge extent never merges");
                        continue;
                    }
                    assert_eq!(merged, pred.is_some() as u64 + succ.is_some() as u64, "op {op}");
                    let want = (pred.unwrap_or(off), succ.unwrap_or(end));
                    let listed =
                        la.reclaimed.iter().find(|&(size, o, _)| o <= off && off < o + size as u64);
                    let (size, o, lid) = listed.expect("the freed extent is listed");
                    assert_eq!((o, o + size as u64), want, "op {op}: merged bounds");
                    let w = la.veh_local(lid).expect("listed id is live");
                    assert_eq!((w.off, w.size, w.state), (o, size, ExtentState::Reclaimed));
                } else {
                    let got = if rng.gen_bool(0.15) {
                        la.alloc_aligned(&pool, &mut t, SLAB_SIZE, SLAB_SIZE, true)
                    } else {
                        let shift: u32 = rng.gen_range(14..22);
                        let size: usize = rng.gen_range(1 << shift..2 << shift);
                        la.alloc(&pool, &mut t, size.min(HUGE_MIN + (512 << 10)), false)
                    };
                    match got {
                        Ok((id, _)) => {
                            reused += !issued.insert(id) as usize;
                            live.push(id);
                        }
                        Err(PmError::OutOfMemory { .. }) => {}
                        Err(e) => panic!("op {op}: {e}"),
                    }
                }
                if op % 50 == 49 {
                    // The pool's clock is off: step the decay schedule by
                    // hand, so extents reach the retained list and the OS.
                    now += DECAY_WINDOW_NS / 8;
                    la.decay_tick(now);
                    stale += stale_bounds(&la);
                    unmapped += la.unmapped.len();
                }
                if op % 700 == 699 {
                    la.drain_free_lists();
                }
            }
            let s = la.stats();
            assert!(s.coalesces > 100 && s.decay_epochs > 0, "{s:?}");
            assert!(reused > 100 && huge_frees > 10, "reused {reused}, huge frees {huge_frees}");
            assert!(stale > 0 && unmapped > 0, "stale entries {stale}, unmapped {unmapped}");
        }
    }

    #[test]
    fn retained_extent_can_be_reallocated() {
        let (pool, mut la, mut t) = setup(true);
        let (id, off) = la.alloc(&pool, &mut t, 256 << 10, false).unwrap();
        la.free(&pool, &mut t, id).unwrap();
        // Demote to retained only (first drain pass).
        la.decay_reclaimed.peak = 0;
        la.decay_tick(la.clock);
        assert!(la.retained.len() > 0);
        let (_, off2) = la.alloc(&pool, &mut t, 256 << 10, false).unwrap();
        // The retained extent (or a prefix of the coalesced one) comes back.
        assert_eq!(off2, off);
    }
}
