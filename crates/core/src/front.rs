//! The NVAlloc front end: pool layout, arena/thread management, and the
//! `malloc_to` / `free_from` paths tying slabs, tcaches, morphing, the WAL,
//! and the large allocator together.
//!
//! # Pool layout
//!
//! ```text
//! [ pool header | arena flags | root slots | per-arena WAL regions |
//!   region table | bookkeeping log | heap (slabs + extents) ]
//! ```
//!
//! # Lock order
//!
//! `Arena::inner` → large shard mutex ([`crate::shards::ShardedLarge`];
//! at most one shard lock is held at a time). WAL appends are per-thread
//! micro-logs (lock-free); persistent bitmap bits are atomic word
//! updates; rtree reads and writes are lock-free.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use nvalloc_pmem::{
    ClockSpan, FlushKind, PmError, PmOffset, PmResult, PmThread, PmemMode, PmemPool,
};

use crate::api::{AllocThread, PmAllocator};
use crate::arena::{arena_state, Arena};
use crate::bitmap::{set_bits, PmBitmap};
use crate::booklog::LOG_HEADER_BYTES;
use crate::config::{NvConfig, Variant};
use crate::doctor::Violation;
use crate::geometry::GeometryTable;
use crate::large::{LargeConfig, VehId, PAGE, REGION_BYTES};
use crate::morph;
use crate::observe::{ArenaGauge, ClassGauge, TimelineSample, TimelineSampler};
use crate::prof::Prof;
use crate::remote::{RemoteFree, SlabGates};
use crate::rtree::{Owner, RTree};
use crate::shards::ShardedLarge;
use crate::size_class::{class_size, size_to_class, ClassId, SLAB_SIZE};
use crate::slab::{flag, SlabHeader, VSlab};
use crate::tcache::TCache;
use crate::telemetry::{MetricsSnapshot, OpKind, Probe, Probes};
use crate::trace::{EventKind, TraceRecorder};
use crate::wal::{MicroWal, WalOp, WalRegion, MICRO_ENTRIES};

/// Magic tag identifying an NVAlloc-formatted pool.
pub const POOL_MAGIC: u64 = 0x4E56_414C_4C4F_4331; // "NVALLOC1"

/// WAL capacity per arena: 4096 entries, in micro-logs of
/// [`MICRO_ENTRIES`] slots.
const WAL_MICRO_LOGS: usize = 4096 / MICRO_ENTRIES;
/// Bookkeeping-log region size (paper: a 100 MB file), clamped to a
/// quarter of the pool by [`Layout::compute`].
const BOOKLOG_BYTES: usize = 4 << 20;
/// Max cached blocks per tcache size class.
const TCACHE_CAP: usize = 64;

/// Computed pool layout (all offsets in bytes).
#[derive(Debug, Clone)]
pub(crate) struct Layout {
    pub arena_flags: PmOffset,
    pub roots: PmOffset,
    pub roots_count: usize,
    pub wal_base: PmOffset,
    pub wal_micro_count: usize,
    pub region_table: PmOffset,
    pub region_table_bytes: usize,
    pub booklog: PmOffset,
    pub booklog_bytes: usize,
    /// Provenance-sidelog region ([`crate::prof`]); `prof_bytes == 0`
    /// when profiling is off and the region collapses to nothing.
    pub prof_base: PmOffset,
    pub prof_bytes: usize,
    pub heap_base: PmOffset,
    pub heap_bytes: usize,
    /// Effective large-allocation shard count (power of two; clamped so
    /// every shard keeps a workable booklog slice and heap span). Both
    /// `create` and `recover` derive it here, so the per-shard region
    /// slicing is deterministic across crashes.
    pub large_shards: usize,
}

impl Layout {
    pub(crate) fn compute(cfg: &NvConfig, pool_size: usize) -> PmResult<Layout> {
        let arena_flags = 64u64;
        let flags_end = arena_flags + cfg.arenas as u64 * 64;
        let roots = crate::align_up64(flags_end, 64);
        let roots_end = roots + cfg.roots as u64 * 8;
        let wal_base = crate::align_up64(roots_end, 64);
        let wal_bytes = cfg.arenas * WalRegion::region_bytes(WAL_MICRO_LOGS);
        let wal_end = wal_base + wal_bytes as u64;
        let booklog_bytes = BOOKLOG_BYTES.min(pool_size / 4).max(64 << 10);
        // Shard count: requested (0 = one per arena), rounded up to a
        // power of two, then halved until every shard keeps a workable
        // booklog slice and a two-region heap span — small pools degrade
        // gracefully to a single shard.
        let want = if cfg.large_shards == 0 { cfg.arenas } else { cfg.large_shards };
        let mut shards = want.max(1).next_power_of_two().min(crate::shards::MAX_SHARDS);
        loop {
            // Each shard gets its own region-table slice sized with
            // headroom for its whole sub-heap, so no shard can run out
            // of region slots while its neighbours sit empty.
            let region_table_bytes = shards * (8 + 8 * (pool_size / REGION_BYTES / shards + 2));
            let region_table = crate::align_up64(wal_end, 64);
            let booklog = crate::align_up64(region_table + region_table_bytes as u64, 64);
            let prof_base = crate::align_up64(booklog + booklog_bytes as u64, 64);
            let prof_bytes = if cfg.profile_sample_bytes > 0 {
                cfg.arenas * crate::prof::PROF_LOG_BYTES
            } else {
                0
            };
            let heap_base = crate::align_up64(prof_base + prof_bytes as u64, SLAB_SIZE as u64);
            let fits = heap_base as usize + REGION_BYTES <= pool_size;
            if shards > 1
                && (!fits
                    || booklog_bytes / shards < crate::shards::MIN_SHARD_BOOKLOG
                    || (pool_size - heap_base as usize) / shards < crate::shards::MIN_SHARD_HEAP)
            {
                shards /= 2;
                continue;
            }
            if !fits {
                return Err(PmError::OutOfMemory { requested: REGION_BYTES });
            }
            return Ok(Layout {
                arena_flags,
                roots,
                roots_count: cfg.roots,
                wal_base,
                wal_micro_count: WAL_MICRO_LOGS,
                region_table,
                region_table_bytes,
                booklog,
                booklog_bytes,
                prof_base,
                prof_bytes,
                heap_base,
                heap_bytes: pool_size - heap_base as usize,
                large_shards: shards,
            });
        }
    }

    /// The one reader of the pool header, shared by recovery and the
    /// doctor: the magic word, the recorded arena and root counts against
    /// `cfg`, then the layout they imply.
    ///
    /// # Errors
    /// `pool_magic`, `pool_header`, or `layout` (does not fit the pool).
    pub(crate) fn read(pool: &PmemPool, cfg: &NvConfig) -> Result<Layout, Violation> {
        let magic = pool.read_u64(0);
        if magic != POOL_MAGIC {
            return Err(Violation::new(
                "pool_magic",
                format!("word 0 is {magic:#x}, not POOL_MAGIC"),
            ));
        }
        for (word, field, want) in [(8, "arenas", cfg.arenas), (16, "roots", cfg.roots)] {
            let got = pool.read_u64(word);
            if got != want as u64 {
                return Err(Violation::new(
                    "pool_header",
                    format!("header {field} {got} != cfg {want}"),
                ));
            }
        }
        Layout::compute(cfg, pool.size())
            .map_err(|e| Violation::new("layout", format!("layout does not fit this pool: {e}")))
    }

    /// The arenas over this layout's state flags and WAL regions.
    pub(crate) fn arenas(&self, cfg: &NvConfig) -> Vec<Arc<Arena>> {
        (0..cfg.arenas)
            .map(|i| {
                let base =
                    self.wal_base + (i * WalRegion::region_bytes(self.wal_micro_count)) as u64;
                let flag_off = self.arena_flags + (i * 64) as u64;
                let wal = WalRegion::open(base, self.wal_micro_count);
                Arc::new(Arena::new(i as u32, flag_off, wal, cfg.telemetry))
            })
            .collect()
    }

    pub(crate) fn large_config(&self, cfg: &NvConfig) -> LargeConfig {
        LargeConfig {
            heap_base: self.heap_base,
            heap_bytes: self.heap_bytes,
            log_bookkeeping: cfg.log_bookkeeping,
            booklog_base: self.booklog,
            booklog_bytes: self.booklog_bytes,
            booklog_stripes: cfg.stripes_for(cfg.interleave_logs),
            booklog_gc: cfg.booklog_gc,
            slow_gc_threshold: usize::MAX, // set by NvInner from usage_pmem
            region_table_base: self.region_table,
            region_table_bytes: self.region_table_bytes,
            shard_tag: 0, // per-shard tags are applied by ShardedLarge
        }
    }
}

/// Slab-utilisation snapshot for the Fig. 15(b) space breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct SlabUtilization {
    /// Upper bounds of the occupancy bins (e.g. `[0.3, 0.7]` → bins
    /// 0–30 %, 30–70 %, 70–100 %).
    pub bins: Vec<f64>,
    /// Slab counts per bin (one more than `bins`).
    pub counts: Vec<usize>,
}

/// Outcome summary of [`NvAllocator::recover`]. See §4.4.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Every arena flag read `NormalShutdown`.
    pub normal_shutdown: bool,
    /// Slabs reconstructed from the bookkeeping log.
    pub slabs: usize,
    /// Non-slab extents reconstructed.
    pub extents: usize,
    /// WAL entries replayed (LOG variant, failure recovery).
    pub wal_replayed: usize,
    /// Blocks/extents whose leaks were fixed by replay or GC.
    pub leaks_fixed: usize,
    /// Slab morphs rolled back (or forward) via the header flag.
    pub morphs_resolved: usize,
    /// Live blocks found by conservative GC (GC variant).
    pub gc_live_blocks: usize,
    /// Provenance-sidelog records scanned during profiler replay.
    pub prof_records: usize,
    /// Replayed profiler records pruned because their object is dead
    /// on-heap (crash landed between an append and its commit point).
    pub prof_stale: usize,
}

pub(crate) struct NvInner {
    pub pool: Arc<PmemPool>,
    pub cfg: NvConfig,
    pub geoms: GeometryTable,
    pub layout: Layout,
    pub arenas: Vec<Arc<Arena>>,
    pub large: ShardedLarge,
    pub rtree: Arc<RTree>,
    pub live_bytes: AtomicUsize,
    pub wal_seq: AtomicU64,
    /// Probe registry (`NvConfig::telemetry`); snapshots fold its probes.
    pub probes: Arc<Probes>,
    /// Flight recorder (`NvConfig::trace`); threads register a ring on
    /// creation and emit through their `PmThread`.
    pub tracer: Option<Arc<TraceRecorder>>,
    /// Per-slab shared/exclusive gates arbitrating the lock-free free
    /// fast path against slab layout changes (morph, retire).
    pub slab_gates: SlabGates,
    /// Timeline sampler (`NvConfig::timeline`); operation completions
    /// check it against their thread's virtual clock and the boundary
    /// winner records one [`TimelineSample`].
    pub observe: Option<Arc<TimelineSampler>>,
    /// Sampled heap profiler (`NvConfig::profiling`); `None` when off.
    pub prof: Option<Arc<Prof>>,
}

/// An allocator's instrumentation and volatile side tables, built from
/// its configuration before any heap work (so recovery's own thread
/// records into them) and handed to [`NvInner::assemble`].
pub(crate) struct Instruments {
    pub probes: Arc<Probes>,
    pub tracer: Option<Arc<TraceRecorder>>,
    pub slab_gates: SlabGates,
    pub observe: Option<Arc<TimelineSampler>>,
    pub prof: Option<Arc<Prof>>,
}

impl Instruments {
    pub(crate) fn new(cfg: &NvConfig, layout: &Layout, pool_size: usize) -> Instruments {
        Instruments {
            probes: Arc::new(Probes::new(cfg.telemetry)),
            tracer: cfg.trace.then(|| Arc::new(TraceRecorder::new(cfg.trace_events_per_thread))),
            slab_gates: SlabGates::new(pool_size),
            observe: (cfg.timeline_interval_ns > 0).then(|| {
                Arc::new(TimelineSampler::new(cfg.timeline_interval_ns, cfg.timeline_capacity))
            }),
            prof: (cfg.profile_sample_bytes > 0).then(|| {
                Arc::new(Prof::new(cfg.profile_sample_bytes, layout.prof_base, cfg.arenas))
            }),
        }
    }
}

/// The heap parts `create` formats and `recover` rebuilds.
pub(crate) struct Heap {
    pub geoms: GeometryTable,
    pub arenas: Vec<Arc<Arena>>,
    pub large: ShardedLarge,
    pub rtree: Arc<RTree>,
    pub live_bytes: usize,
    pub wal_seq: u64,
}

impl NvInner {
    /// The allocator around a formatted or recovered heap.
    pub(crate) fn assemble(
        pool: Arc<PmemPool>,
        cfg: NvConfig,
        layout: Layout,
        heap: Heap,
        inst: Instruments,
    ) -> NvAllocator {
        NvAllocator(Arc::new(NvInner {
            pool,
            cfg,
            geoms: heap.geoms,
            layout,
            arenas: heap.arenas,
            large: heap.large,
            rtree: heap.rtree,
            live_bytes: AtomicUsize::new(heap.live_bytes),
            wal_seq: AtomicU64::new(heap.wal_seq),
            probes: inst.probes,
            tracer: inst.tracer,
            slab_gates: inst.slab_gates,
            observe: inst.observe,
            prof: inst.prof,
        }))
    }

    /// Drain `arena`'s deferred cross-arena frees into its slabs. The
    /// caller holds `ai` (the arena's lock), which makes it the queue's
    /// single consumer.
    pub(crate) fn drain_remote(
        &self,
        t: &mut PmThread,
        probe: &Probe,
        arena: &Arena,
        ai: &mut crate::arena::ArenaInner,
    ) -> usize {
        let items = arena.remote.drain();
        if items.is_empty() {
            return 0;
        }
        probe.event(t, EventKind::RemoteDrain, arena.id as u64, items.len() as u64);
        for f in &items {
            let idx = f.idx as usize;
            // The persistent free already happened on the freeing thread;
            // only the volatile return-to-slab is deferred. Entries whose
            // slab vanished in the meantime are stale and ignorable.
            let valid = ai.slabs.get(&f.slab).is_some_and(|v| idx < v.nblocks && v.is_taken(idx));
            if !valid {
                continue;
            }
            if ai.return_block_to_slab(f.slab, idx) {
                let _ = self.destroy_if_free(t, probe, ai, f.slab);
            }
        }
        items.len()
    }

    /// Retire `slab_off` if it is completely free: dismantle it under its
    /// exclusive gate and return the frame to the large allocator. Caller
    /// holds the arena lock.
    pub(crate) fn destroy_if_free(
        &self,
        t: &mut PmThread,
        probe: &Probe,
        ai: &mut crate::arena::ArenaInner,
        slab_off: PmOffset,
    ) -> PmResult<()> {
        if !ai.slabs.get(&slab_off).is_some_and(|v| v.is_completely_free()) {
            return Ok(());
        }
        // Spin out in-flight pinned frees and divert new ones to the
        // locked path while the frame is dismantled. Pin sections never
        // wait on the arena lock (held here), so this cannot deadlock.
        self.slab_gates.lock(slab_off);
        let vs = ai.remove_slab(slab_off);
        probe.event(t, EventKind::SlabRetire, 0, 0);
        // large.free re-registers nothing; it clears the frame's 16 slab
        // owner entries from the rtree. The shard is selected by the
        // frame's veh tag.
        let res = self.large.free(&self.pool, t, vs.veh);
        self.slab_gates.unlock(slab_off);
        res
    }

    /// Collect one timeline sample at virtual time `ns` (read-only; see
    /// [`crate::observe`]) with `counts` the probes' fold. Takes each
    /// arena lock and each large-shard lock briefly — the *uncounted*
    /// raw locks, so sampling never shows up in the lock telemetry it
    /// observes — and makes no persistence calls. The windowed latency
    /// quantiles are filled in later by
    /// [`TimelineSampler::record`].
    pub(crate) fn collect_sample(&self, ns: u64, counts: &MetricsSnapshot) -> TimelineSample {
        let shards = self.large.gauges();
        let mut arenas = Vec::with_capacity(self.arenas.len());
        for a in &self.arenas {
            let ai = a.inner.lock();
            // (slabs, capacity blocks, live blocks) per class; aggregated
            // into a fixed-order array so the HashMap iteration order of
            // `ai.slabs` cannot leak into the sample.
            let mut per_class = [(0usize, 0usize, 0usize); crate::size_class::NUM_CLASSES];
            // Occupancy deciles share the same pass (the arena lock is
            // held, so a second `slabs` walk would only add hold time) and
            // the same binning as the doctor's audit histogram.
            let mut occupancy_hist = vec![0usize; crate::observe::DECILE_BINS.len() + 1];
            for vs in ai.slabs.values() {
                let e = &mut per_class[vs.class];
                e.0 += 1;
                e.1 += vs.nblocks;
                e.2 += vs.nblocks - vs.nfree;
                if let Some(d) = crate::observe::occupancy_decile(vs.nblocks - vs.nfree, vs.nblocks)
                {
                    occupancy_hist[d] += 1;
                }
            }
            // `remote.len()`'s safety contract requires the arena lock
            // (held here).
            let remote_depth = a.remote.len();
            arenas.push(ArenaGauge {
                slabs: ai.slabs.len(),
                occupancy_hist,
                classes: per_class
                    .iter()
                    .enumerate()
                    .filter(|(_, e)| e.0 > 0)
                    .map(|(class, &(slabs, capacity_blocks, live_blocks))| ClassGauge {
                        class,
                        slabs,
                        capacity_blocks,
                        live_blocks,
                    })
                    .collect(),
                remote_depth,
            });
        }
        // Every Active slab extent backs a claimed slab, so this is the
        // same coverage the doctor derives from its `slabs` count.
        let slab_frames: usize = shards.iter().map(|s| s.active_slabs).sum();
        let live_large: u64 = shards.iter().map(|s| s.live_large_bytes).sum();
        let max_end = shards.iter().map(|s| s.max_extent_end).max().filter(|&e| e > 0);
        let heap_used = crate::observe::heap_used_bytes(max_end, self.layout.heap_base);
        let covered = crate::observe::covered_bytes(slab_frames, live_large);
        let (cap, live) = arenas
            .iter()
            .flat_map(|a| &a.classes)
            .fold((0usize, 0usize), |(c, l), g| (c + g.capacity_blocks, l + g.live_blocks));
        TimelineSample {
            seq: 0, // assigned by TimelineSampler::record
            ns,
            heap_used_bytes: heap_used,
            covered_bytes: covered,
            external_frag: crate::observe::external_fragmentation(heap_used, covered),
            slab_utilization: crate::observe::utilization(live, cap),
            mapped_bytes: shards.iter().map(|s| s.mapped_bytes).sum(),
            live_bytes: self.live_bytes.load(Ordering::Relaxed) as u64,
            booklog_live: shards.iter().map(|s| s.booklog_live).sum(),
            booklog_dead: shards.iter().map(|s| s.booklog_dead).sum(),
            wal_appends: counts.wal_appends,
            shards,
            arenas,
            window: Default::default(),
        }
    }
}

impl std::fmt::Debug for NvInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NvInner")
            .field("cfg", &self.cfg.tag())
            .field("arenas", &self.arenas.len())
            .finish_non_exhaustive()
    }
}

/// The NVAlloc allocator handle (clone freely; all clones share state).
#[derive(Debug, Clone)]
pub struct NvAllocator(pub(crate) Arc<NvInner>);

impl NvAllocator {
    /// Format `pool` and create a fresh allocator.
    ///
    /// # Errors
    /// [`PmError::OutOfMemory`] if the pool is too small for the
    /// configured metadata regions plus one heap region.
    pub fn create(pool: Arc<PmemPool>, cfg: NvConfig) -> PmResult<NvAllocator> {
        // `effective` folds the persisted sampling period from the pool
        // header, but a *fresh* format must use the requested one, not
        // whatever a stale image left at word 24.
        let want_prof = cfg.profile_sample_bytes;
        let mut cfg = Self::effective(cfg, &pool);
        cfg.profile_sample_bytes = want_prof;
        let layout = Layout::compute(&cfg, pool.size())?;
        let mut t = pool.register_thread();
        let mut large_cfg = layout.large_config(&cfg);
        large_cfg.slow_gc_threshold = ((pool.size() as f64 * cfg.usage_pmem) as usize).max(4096);

        // Zero, durably, the metadata read before it is written: the pool
        // header, arena flags, roots and WALs, the region table, each
        // shard's booklog header and the sidelog region up to the heap. A
        // booklog chunk is zeroed when it is carved, and nothing reads
        // past the carve mark. Fresh media costs no store, flush or fence.
        let log_headers = ShardedLarge::shard_cfgs(&large_cfg, layout.large_shards)
            .into_iter()
            .filter(|c| c.log_bookkeeping)
            .map(|c| (c.booklog_base, c.booklog_base + LOG_HEADER_BYTES as u64));
        let zeroed = [(0, layout.booklog), (layout.prof_base, layout.heap_base)];
        for (start, end) in zeroed.into_iter().chain(log_headers) {
            pool.persist_zero(&mut t, start, (end - start) as usize, FlushKind::Meta);
        }

        let geoms = GeometryTable::new(cfg.stripes_for(cfg.interleave_bitmap));
        let rtree = Arc::new(RTree::new());
        let large = ShardedLarge::new(&pool, large_cfg, layout.large_shards, &rtree, cfg.telemetry);

        let arenas = layout.arenas(&cfg);
        for a in &arenas {
            a.set_state(&pool, &mut t, arena_state::RUNNING);
        }

        // Pool header last (commit point of the format).
        pool.write_u64(8, cfg.arenas as u64);
        pool.write_u64(16, cfg.roots as u64);
        pool.write_u64(24, cfg.profile_sample_bytes);
        pool.persist_u64(&mut t, 0, POOL_MAGIC, FlushKind::Meta);

        // The sidelog region sits wholly below the heap (zeroed by the
        // format pass above).
        debug_assert!(layout.prof_base + layout.prof_bytes as u64 <= layout.heap_base);
        let inst = Instruments::new(&cfg, &layout, pool.size());
        let heap = Heap { geoms, arenas, large, rtree, live_bytes: 0, wal_seq: 1 };
        Ok(NvInner::assemble(pool, cfg, layout, heap, inst))
    }

    /// Recover an allocator from an existing (possibly crashed) pool image.
    /// `cfg` must match the configuration the pool was created with.
    ///
    /// # Errors
    /// [`PmError::Corrupt`] if the pool was never formatted.
    pub fn recover(pool: Arc<PmemPool>, cfg: NvConfig) -> PmResult<(NvAllocator, RecoveryReport)> {
        crate::recovery::recover(pool, cfg)
    }

    /// Adjust the configuration for the platform (eADR auto-disables
    /// interleaving, §6.7) and clamp fields.
    pub(crate) fn effective(mut cfg: NvConfig, pool: &PmemPool) -> NvConfig {
        if cfg.auto_eadr && pool.model().pmem_mode() == PmemMode::Eadr {
            cfg.interleave_bitmap = false;
            cfg.interleave_tcache = false;
            cfg.interleave_logs = false;
        }
        cfg.arenas = cfg.arenas.max(1);
        cfg.stripes = cfg.stripes.max(1);
        // The sampling period is part of the pool layout (it sizes the
        // provenance-sidelog region), so on a formatted pool the header's
        // word is authoritative — recover and the offline doctor must see
        // the geometry the pool was created with.
        if pool.read_u64(0) == POOL_MAGIC {
            cfg.profile_sample_bytes = pool.read_u64(24);
        }
        cfg
    }

    /// The effective configuration (after platform adjustment).
    pub fn config(&self) -> &NvConfig {
        &self.0.cfg
    }

    /// Slab-occupancy histogram across all arenas (Fig. 15b). Drains any
    /// deferred cross-arena frees first so the histogram reflects them.
    pub fn slab_utilization(&self, bins: &[f64]) -> SlabUtilization {
        let mut t = self.0.pool.register_thread();
        let probe = self.0.probes.probe();
        let mut counts = vec![0usize; bins.len() + 1];
        for a in &self.0.arenas {
            let mut inner = a.inner.lock();
            self.0.drain_remote(&mut t, &probe, a, &mut inner);
            for (i, c) in inner.occupancy_histogram(bins).into_iter().enumerate() {
                counts[i] += c;
            }
        }
        SlabUtilization { bins: bins.to_vec(), counts }
    }

    /// Booklog GC statistics, summed across shards (None when the
    /// booklog is disabled).
    pub fn booklog_stats(&self) -> Option<crate::booklog::BookLogStats> {
        self.0.large.booklog_stats()
    }

    /// Effective large-shard count (after layout clamping).
    pub fn large_shards(&self) -> usize {
        self.0.large.shard_count()
    }

    /// Enumerate every live allocation as `(offset, size)` — the
    /// internal-collection interface (PMDK's `POBJ_FIRST`/`POBJ_NEXT`
    /// analogue, §7). Available in every variant; with
    /// [`Variant::Internal`] it is the primary way references are kept.
    pub fn objects(&self) -> Vec<(PmOffset, usize)> {
        let pool = &self.0.pool;
        let mut out = Vec::new();
        for a in &self.0.arenas {
            let inner = a.inner.lock();
            for vs in inner.slabs.values() {
                let bs = vs.block_size();
                let dense = vs.pbitmap(&self.0.geoms).read_dense(pool);
                for i in set_bits(&dense).take_while(|&i| i < vs.nblocks) {
                    out.push((vs.block_addr(i), bs));
                }
                if let Some(m) = &vs.morph {
                    let old_bs = crate::size_class::class_size(m.old_class);
                    for e in m.index.iter().filter(|e| e.allocated) {
                        let addr =
                            vs.off + (m.old_data_offset + e.old_idx as usize * old_bs) as u64;
                        out.push((addr, old_bs));
                    }
                }
            }
        }
        for (id, off, is_slab) in self.0.large.active_extents() {
            if !is_slab {
                if let Some(v) = self.0.large.veh(id) {
                    out.push((off, v.size));
                }
            }
        }
        out
    }

    /// Usable size of the live allocation starting exactly at `addr`: the
    /// granted capacity — its size class, its morph-old class for a block
    /// that predates a slab morph, or its (page-rounded) extent size.
    /// `None` when `addr` is not the base of a live allocation. This is
    /// what the `GlobalAlloc` front end reports as `nv_usable_size` and
    /// uses to bound realloc's copy.
    pub fn usable_size(&self, addr: PmOffset) -> Option<usize> {
        match Owner::unpack(self.0.rtree.lookup(addr)?) {
            Owner::Slab { slab, arena } => {
                let a = self.0.arenas.get(arena as usize)?;
                let ai = a.inner.lock();
                if morph::find_old_block(&ai, slab, addr).is_some() {
                    return ai.slabs.get(&slab)?.morph.as_ref().map(|m| class_size(m.old_class));
                }
                let vs = ai.slabs.get(&slab)?;
                vs.block_index(addr).filter(|&i| vs.is_taken(i)).map(|_| class_size(vs.class))
            }
            Owner::Extent { veh } => {
                self.0.large.veh(veh).filter(|v| v.off == addr).map(|v| v.size)
            }
        }
    }

    /// Force a decay pass on every large shard's free lists.
    pub fn drain_free_lists(&self) {
        self.0.large.drain_free_lists();
    }

    /// The timeline sampler, when `NvConfig::timeline` is on.
    pub fn timeline_sampler(&self) -> Option<&Arc<TimelineSampler>> {
        self.0.observe.as_ref()
    }

    /// The sampled heap profiler, when `NvConfig::profiling` is on.
    pub fn profiler(&self) -> Option<&Arc<Prof>> {
        self.0.prof.as_ref()
    }

    /// Resident timeline samples, oldest first (empty when the sampler
    /// is off or no tick has fired yet).
    pub fn timeline_samples(&self) -> Vec<TimelineSample> {
        self.0.observe.as_ref().map(|o| o.samples()).unwrap_or_default()
    }

    /// Collect one out-of-band sample of the heap's *current* state,
    /// independent of the sampler (works with the timeline off; the
    /// windowed latency fields stay zero and the sample is not recorded
    /// into the ring). This is what the doctor-equivalence test compares
    /// against the offline audit on a quiesced heap.
    pub fn timeline_sample_now(&self) -> TimelineSample {
        self.0.collect_sample(0, &self.0.probes.snapshot())
    }
}

impl PmAllocator for NvAllocator {
    fn name(&self) -> String {
        self.0.cfg.tag()
    }

    fn pool(&self) -> &Arc<PmemPool> {
        &self.0.pool
    }

    fn thread(&self) -> Box<dyn AllocThread> {
        // Least-loaded arena assignment (§4.2).
        let arena = self
            .0
            .arenas
            .iter()
            .min_by_key(|a| a.threads.load(Ordering::Relaxed))
            .expect("at least one arena")
            .clone();
        arena.threads.fetch_add(1, Ordering::Relaxed);
        let micro_idx = arena.wal_next_micro.fetch_add(1, Ordering::Relaxed);
        let wal = arena.wal.micro(micro_idx, self.0.cfg.stripes_for(self.0.cfg.interleave_logs));
        let tc_stripes = if self.0.cfg.interleave_tcache { self.0.geoms.stripes() } else { 1 };
        let mut pm = self.0.pool.register_thread();
        if let Some(rec) = &self.0.tracer {
            pm.set_tracer(rec.register());
        }
        Box::new(NvThread {
            inner: Arc::clone(&self.0),
            t: ThreadState {
                pm,
                probe: self.0.probes.probe(),
                tcache: TCache::new(tc_stripes, TCACHE_CAP),
                arena,
                wal,
                prof_acc: 0,
            },
        })
    }

    fn root_offset(&self, i: usize) -> PmOffset {
        assert!(i < self.0.layout.roots_count, "root {i} out of range");
        self.0.layout.roots + (i * 8) as u64
    }

    fn root_count(&self) -> usize {
        self.0.layout.roots_count
    }

    fn heap_mapped_bytes(&self) -> usize {
        self.0.large.mapped_bytes()
    }

    fn peak_mapped_bytes(&self) -> usize {
        self.0.large.peak_mapped()
    }

    fn live_bytes(&self) -> usize {
        self.0.live_bytes.load(Ordering::Relaxed)
    }

    fn metrics(&self) -> MetricsSnapshot {
        let mut s = self.0.probes.snapshot();
        if self.0.cfg.telemetry {
            // Booklog, extent and lock counters live beside the structures
            // they count; fold them in here.
            if let Some(b) = self.0.large.booklog_stats() {
                s.booklog_appends = b.appends;
                s.booklog_tombstones = b.tombstones;
                s.booklog_fast_gc_runs = b.fast_gc_runs;
                s.booklog_fast_gc_reaps = b.fast_gc_chunks;
                s.booklog_slow_gc_runs = b.slow_gc_runs;
                s.booklog_slow_gc_copied = b.slow_gc_copied;
                s.booklog_alt_flips = b.alt_flips;
            }
            self.0.large.fold_into(&mut s);
            for a in &self.0.arenas {
                a.inner.stats().fold_into(&mut s);
            }
        }
        // Trace accounting is independent of the telemetry toggle: the
        // flight recorder can run with counters off.
        if let Some(rec) = &self.0.tracer {
            s.trace_events = rec.events();
            s.trace_dropped = rec.dropped();
        }
        // So is pmsan: the sanitizer lives in the pool and its counters
        // are the ground truth for the CI zero-violation gates.
        if let Some(c) = self.0.pool.pmsan_counts() {
            s.pmsan_store_unfenced = c[0];
            s.pmsan_empty_fence = c[1];
            s.pmsan_redundant_flush = c[2];
            s.pmsan_shutdown_dirty = c[3];
            s.pmsan_violations = c.iter().sum();
        }
        // Profiler counters live in `Prof`'s own atomics (it is config-
        // gated and lock-disciplined separately from the probes).
        if let Some(p) = &self.0.prof {
            let [samples, appends, frees, compactions, dropped] = p.counters();
            s.prof_samples = samples;
            s.prof_appends = appends;
            s.prof_frees = frees;
            s.prof_compactions = compactions;
            s.prof_dropped = dropped;
        }
        s
    }

    fn trace_json(&self) -> Option<String> {
        self.0.tracer.as_ref().map(|r| match &self.0.observe {
            // Merge the timeline's counter tracks into the event stream so
            // the fragmentation/heap/queue curves render above the ops.
            Some(o) => r.chrome_json_with(&o.chrome_counter_events()),
            None => r.chrome_json(),
        })
    }

    fn timeline_json(&self) -> Option<String> {
        self.0.observe.as_ref().map(|o| o.json_lines())
    }

    fn profile_json(&self) -> Option<String> {
        self.0.prof.as_ref().map(|p| p.json())
    }

    fn profile_collapsed(&self) -> Option<String> {
        self.0.prof.as_ref().map(|p| p.collapsed())
    }

    fn quiesce(&self) {
        let pool = &self.0.pool;
        let mut t = pool.register_thread();
        let probe = self.0.probes.probe();
        for a in &self.0.arenas {
            // An arena whose threads have all exited has no owner left to
            // drain it on the malloc slow path; quiesce is the foreign
            // drain of last resort for those stranded queues, and counts
            // as such.
            let stranded = a.threads.load(Ordering::Relaxed) == 0 && !a.remote.is_empty();
            let mut inner = a.inner.lock();
            if self.0.drain_remote(&mut t, &probe, a, &mut inner) > 0 && stranded {
                probe.event(&t, EventKind::RemoteDrainForeign, 0, 0);
            }
        }
        // Draining is volatile, but returning the last block of a slab
        // can retire the frame (persistent header scrub); order any such
        // flushes now. No-op if nothing was flushed.
        pool.fence_pending(&mut t);
        // The heap is idle: capture the retained-set leak report — every
        // profiled site still holding live bytes.
        if let Some(p) = &self.0.prof {
            p.mark_retained();
        }
    }

    fn exit(&self) {
        let pool = &self.0.pool;
        let mut t = pool.register_thread();
        let probe = self.0.probes.probe();
        // Flush everything recovery reads: slab headers + bitmaps + index
        // tables (the GC variant never flushed them at runtime), and the
        // root region. These are writeback sweeps — re-flushing lines the
        // LOG variant already persisted is the point, not a bug.
        for a in &self.0.arenas {
            let mut inner = a.inner.lock();
            self.0.drain_remote(&mut t, &probe, a, &mut inner);
            for vs in inner.slabs.values() {
                pool.flush_writeback(&mut t, vs.off, vs.data_offset, FlushKind::Meta);
            }
            a.set_state(pool, &mut t, arena_state::NORMAL_SHUTDOWN);
        }
        pool.flush_writeback(
            &mut t,
            self.0.layout.roots,
            self.0.layout.roots_count * 8,
            FlushKind::Meta,
        );
        pool.fence(&mut t);
        // With the sanitizer on, audit the committed-reachable metadata:
        // after the sweep above, every line recovery depends on — the
        // whole metadata region below heap_base plus each live slab's
        // header/bitmap/index prefix — must be persisted. Violations are
        // recorded as `ShutdownDirty` with this thread's context.
        if pool.pmsan_enabled() {
            pool.pmsan_audit_range(&t, 0, self.0.layout.heap_base as usize);
            for a in &self.0.arenas {
                let inner = a.inner.lock();
                for vs in inner.slabs.values() {
                    pool.pmsan_audit_range(&t, vs.off, vs.data_offset);
                }
            }
        }
    }
}

/// A per-thread NVAlloc handle.
#[derive(Debug)]
pub struct NvThread {
    inner: Arc<NvInner>,
    t: ThreadState,
}

/// The fields an [`NvThread`] owns, split from the shared [`NvInner`] so
/// the per-op paths borrow the allocator instead of cloning its `Arc`:
/// every clone and drop is a locked read-modify-write on a refcount line
/// that all threads share.
#[derive(Debug)]
struct ThreadState {
    pm: PmThread,
    /// This thread's event counts, op latencies and (when tracing) ring,
    /// all written by this thread alone.
    probe: Probe,
    tcache: TCache,
    arena: Arc<Arena>,
    wal: MicroWal,
    /// Heap-profiler byte countdown ([`crate::prof`]): granted bytes
    /// accumulated since the last sample crossing.
    prof_acc: u64,
}

impl NvInner {
    /// Strongly consistent variants persist metadata and destination slots
    /// on every operation.
    fn strong(&self) -> bool {
        matches!(self.cfg.variant, Variant::Log | Variant::Internal)
    }

    /// Only NVAlloc-LOG needs WAL entries for small allocations; the
    /// internal-collection variant's objects are enumerable, so nothing can
    /// leak (§4.1 / §7 "allocators using internal collection").
    fn use_small_wal(&self) -> bool {
        self.cfg.variant == Variant::Log
    }

    /// Large allocations use the WAL in the LOG and GC variants (Table 2);
    /// the internal-collection variant relies on the booklog alone.
    fn use_large_wal(&self) -> bool {
        self.cfg.variant != Variant::Internal
    }

    fn check_dest(&self, dest: PmOffset) -> PmResult<()> {
        if !dest.is_multiple_of(8)
            || (dest as usize).checked_add(8).is_none_or(|end| end > self.pool.size())
        {
            return Err(PmError::InvalidRequest("dest must be an 8-byte-aligned pool slot"));
        }
        Ok(())
    }
}

impl ThreadState {
    /// Record one event on this thread's probe.
    #[inline]
    fn event(&self, kind: EventKind, a: u64, b: u64) {
        self.probe.event(&self.pm, kind, a, b);
    }

    /// Open an operation: its begin event and its virtual-clock span.
    #[inline]
    fn begin(&self, kind: EventKind, a: u64) -> ClockSpan {
        self.event(kind, a, 0);
        self.pm.span()
    }

    /// Close an operation: its `op` latency sample when it succeeded, its
    /// end event, then the timeline tick — one relaxed load until the
    /// virtual clock crosses a boundary, whose single claim winner folds
    /// every probe and records a sample (no locks held).
    #[inline]
    fn end(&self, inner: &NvInner, span: ClockSpan, op: OpKind, ok: bool, kind: EventKind, a: u64) {
        if ok {
            self.probe.record(op, span.elapsed_ns(&self.pm));
        }
        self.event(kind, a, 0);
        let Some(obs) = &inner.observe else { return };
        let now = self.pm.virtual_ns();
        if !obs.due(now) {
            return;
        }
        let Some(stamp) = obs.claim(now) else { return };
        let counts = inner.probes.snapshot();
        obs.record(inner.collect_sample(stamp, &counts), &counts.hists);
    }

    /// Profiler allocation hook: advance the byte countdown and, on a
    /// sample crossing, record the site + append the provenance record.
    /// Must run *before* the allocation's persistent commit (dest
    /// install) — see [`crate::prof`] for the crash argument. One
    /// `Option` check when profiling is off.
    #[inline]
    fn prof_alloc_hook(&mut self, inner: &NvInner, addr: PmOffset, granted: usize) {
        let Some(p) = &inner.prof else { return };
        let crossings = p.crossings(&mut self.prof_acc, granted);
        if crossings == 0 {
            return;
        }
        p.record_alloc(&inner.pool, &mut self.pm, self.arena.id, addr, granted, crossings);
    }

    /// Profiler free hook: append the FREE provenance record if `addr`
    /// was sampled. Must run *after* the free's persistent commit and
    /// *before* the block can be reused (tcache/remote push).
    #[inline]
    fn prof_free_hook(&mut self, inner: &NvInner, addr: PmOffset) {
        let Some(p) = &inner.prof else { return };
        p.record_free(&inner.pool, &mut self.pm, addr);
    }

    /// Append one entry to this thread's micro-WAL with a fresh sequence
    /// number, and count it.
    fn wal_append(
        &mut self,
        inner: &NvInner,
        op: WalOp,
        addr: PmOffset,
        dest: PmOffset,
        size: u32,
    ) {
        let seq = inner.wal_seq.fetch_add(1, Ordering::Relaxed);
        self.wal.append(&inner.pool, &mut self.pm, op, addr, dest, size, seq);
        self.event(EventKind::WalAppend, addr, seq);
    }

    /// Persist or plainly write the 8-byte destination slot, depending on
    /// the consistency variant and allocation size class. Attributed as
    /// `Data`: the destination is an application-owned location (§4.1), so
    /// its flush is not allocator heap-metadata traffic.
    fn write_dest(&mut self, inner: &NvInner, dest: PmOffset, value: u64, persist: bool) {
        let pool = &inner.pool;
        if persist {
            pool.persist_u64(&mut self.pm, dest, value, FlushKind::Data);
            // In the WAL-covered variants the persisted dest install *is*
            // the commit record of the preceding append (§4.3).
            if inner.use_large_wal() {
                self.event(EventKind::WalCommit, value, dest);
            }
        } else {
            pool.write_u64(dest, value);
            pool.charge_store(&mut self.pm, dest, 8);
        }
    }

    // ----- small path -----

    fn malloc_small(
        &mut self,
        inner: &NvInner,
        class: ClassId,
        size: usize,
        dest: PmOffset,
    ) -> PmResult<PmOffset> {
        let rot0 = self.tcache.rotations();
        let addr = match self.tcache.pop(class) {
            Some(a) => {
                self.event(EventKind::TcacheHit, class as u64, 0);
                a
            }
            None => {
                self.event(EventKind::TcacheMiss, class as u64, 0);
                self.refill(inner, class)?;
                self.tcache.pop(class).ok_or(PmError::OutOfMemory { requested: size })?
            }
        };
        if self.tcache.rotations() > rot0 {
            self.event(EventKind::CursorRotate, class as u64, 0);
        }
        let pool = &inner.pool;
        let strong = inner.strong();
        if inner.use_small_wal() {
            self.wal_append(inner, WalOp::Alloc, addr, dest, size as u32);
        }
        // Persist the allocation in the slab bitmap.
        let slab_off = addr & !(SLAB_SIZE as u64 - 1);
        let h = SlabHeader::read(pool, slab_off).ok_or(PmError::Corrupt("missing slab header"))?;
        let g = inner.geoms.of(class);
        let idx = ((addr - slab_off - h.data_offset as u64) / g.block_size as u64) as usize;
        let bm = PmBitmap::new(slab_off + g.bitmap_off as u64, g.bitmap);
        if strong {
            bm.set_persist(pool, &mut self.pm, idx);
        } else {
            bm.write_volatile(pool, idx, true);
        }
        // Provenance before commit: a survivor must have its record.
        self.prof_alloc_hook(inner, addr, class_size(class));
        // Install the user pointer (the commit record).
        self.write_dest(inner, dest, addr, strong);
        inner.live_bytes.fetch_add(class_size(class), Ordering::Relaxed);
        Ok(addr)
    }

    /// Refill the tcache for `class`: remote-free drain → freelist slabs →
    /// slab morphing → a fresh slab frame from the large allocator (§4.2).
    fn refill(&mut self, inner: &NvInner, class: ClassId) -> PmResult<()> {
        // A refill is already a slow path: opportunistically help other
        // arenas clear their remote-free queues before taking our own
        // lock (the ROADMAP drain hook). try_lock only — never blocks.
        self.drain_idle_arenas(inner);
        let pool = &inner.pool;
        self.event(EventKind::TcacheRefillAttempt, class as u64, 0);
        let arena = Arc::clone(&self.arena);
        let mut ai = arena.inner.timed(Some(&self.pm));
        // Drain deferred cross-arena frees first: remote-freed blocks are
        // the cheapest refill source, and draining on every refill keeps
        // the queue bounded by the refill cadence.
        inner.drain_remote(&mut self.pm, &self.probe, &arena, &mut ai);
        let got = ai.fill_tcache(&inner.geoms, class, &mut self.tcache);
        if got > 0 {
            self.event(EventKind::TcacheRefill, class as u64, got as u64);
            return Ok(());
        }
        if inner.cfg.morphing {
            let span = self.pm.span();
            let morphed = morph::try_morph(
                pool,
                &mut self.pm,
                &mut ai,
                &inner.geoms,
                inner.cfg.su_threshold,
                class,
                Some(&inner.slab_gates),
                &self.probe,
            )
            .is_some();
            if morphed {
                self.probe.record(OpKind::Morph, span.elapsed_ns(&self.pm));
                let got = ai.fill_tcache(&inner.geoms, class, &mut self.tcache);
                if got > 0 {
                    self.event(EventKind::TcacheRefill, class as u64, got as u64);
                    return Ok(());
                }
            }
        }
        // New slab frame (64 KB aligned) from the large allocator.
        let (veh, off) = self.carve_slab_frame(inner)?;
        inner.rtree.insert_range(
            off,
            SLAB_SIZE,
            Owner::Slab { slab: off, arena: self.arena.id }.pack(),
        );
        let vs = VSlab::create(pool, &mut self.pm, off, class, veh, inner.geoms.of(class), true);
        ai.add_slab(vs);
        let got = ai.fill_tcache(&inner.geoms, class, &mut self.tcache);
        self.event(EventKind::TcacheRefill, class as u64, got as u64);
        Ok(())
    }

    /// Carve one slab frame, probing the arena's hint shard first and
    /// falling back round-robin.
    fn carve_slab_frame(&mut self, inner: &NvInner) -> PmResult<(VehId, PmOffset)> {
        let mut oom = PmError::OutOfMemory { requested: SLAB_SIZE };
        for s in inner.large.shard_order(self.arena.id as usize) {
            let mut large = inner.large.lock(s, Some(&self.pm));
            match large.alloc_aligned(&inner.pool, &mut self.pm, SLAB_SIZE, SLAB_SIZE, true) {
                Ok(frame) => {
                    self.event(EventKind::SlabCarve, 0, 0);
                    return Ok(frame);
                }
                Err(e @ PmError::OutOfMemory { .. }) => oom = e,
                Err(e) => return Err(e),
            }
        }
        Err(oom)
    }

    fn free_small(
        &mut self,
        inner: &NvInner,
        slab_off: PmOffset,
        arena_id: u32,
        addr: PmOffset,
        dest: PmOffset,
    ) -> PmResult<()> {
        if let Some(r) = self.try_fast_free_small(inner, slab_off, arena_id, addr, dest) {
            return r;
        }
        self.free_small_locked(inner, slab_off, arena_id, addr, dest)
    }

    /// Lock-free free fast path. The common case — a well-formed free of a
    /// regular (non-morphing) slab's block that fits the local tcache or
    /// targets a remote arena — completes every persistent transition (WAL
    /// append, atomic bitmap clear, destination zeroing) without taking a
    /// single mutex; only the volatile return-to-slab is deferred (own
    /// tcache, or the owner arena's remote-free queue). Returns `None` to
    /// divert to the locked slow path.
    fn try_fast_free_small(
        &mut self,
        inner: &NvInner,
        slab_off: PmOffset,
        arena_id: u32,
        addr: PmOffset,
        dest: PmOffset,
    ) -> Option<PmResult<()>> {
        if !inner.slab_gates.try_pin(slab_off) {
            return None; // layout change in flight: take the locked path
        }
        let out = self.fast_free_pinned(inner, slab_off, arena_id, addr, dest);
        inner.slab_gates.unpin(slab_off);
        out
    }

    /// Body of the lock-free free, executed while `slab_off`'s gate is
    /// pinned (so no morph or retire can change the slab's layout
    /// underneath it).
    fn fast_free_pinned(
        &mut self,
        inner: &NvInner,
        slab_off: PmOffset,
        arena_id: u32,
        addr: PmOffset,
        dest: PmOffset,
    ) -> Option<PmResult<()>> {
        let pool = &inner.pool;
        // Re-verify ownership now that the pin excludes layout changes:
        // the slab could have been retired and its frame reused between
        // the caller's rtree lookup and the pin.
        match inner.rtree.lookup(addr).map(Owner::unpack) {
            Some(Owner::Slab { slab, arena }) if slab == slab_off && arena == arena_id => {}
            _ => return Some(Err(PmError::NotAllocated)),
        }
        let h = SlabHeader::read(pool, slab_off)?;
        if h.flag != flag::NONE || h.is_morphed() {
            return None; // morphing slabs take the locked path (§5.2)
        }
        let class = h.class as usize;
        if class >= crate::size_class::NUM_CLASSES {
            return None;
        }
        let g = inner.geoms.of(class);
        let rel = addr.checked_sub(slab_off + h.data_offset as u64)?;
        if rel % g.block_size as u64 != 0 {
            return None;
        }
        let idx = (rel / g.block_size as u64) as usize;
        if idx >= g.nblocks_at(h.data_offset as usize) {
            return None;
        }
        let local = arena_id == self.arena.id;
        if local && self.tcache.is_full(class) {
            return None; // overflow: the block must return to its slab
        }
        let owner = if local {
            None
        } else {
            // Resolve the owner arena up front so nothing fails after the
            // persistent free below.
            Some(inner.arenas.get(arena_id as usize)?)
        };
        let bm = PmBitmap::new(slab_off + g.bitmap_off as u64, g.bitmap);
        if !bm.get(pool, idx) {
            return Some(Err(PmError::NotAllocated));
        }
        let strong = inner.strong();
        if inner.use_small_wal() {
            self.wal_append(inner, WalOp::Free, addr, dest, 0);
        }
        // The atomic word RMW arbitrates racing frees of the same block:
        // exactly one clearer observes the bit still set.
        let prev = if strong {
            bm.clear_persist_fetch(pool, &mut self.pm, idx)
        } else {
            bm.clear_volatile_fetch(pool, idx)
        };
        if !prev {
            return Some(Err(PmError::NotAllocated));
        }
        self.write_dest(inner, dest, 0, strong);
        inner.live_bytes.fetch_sub(class_size(class), Ordering::Relaxed);
        // Provenance after the commit, before the block can be reused.
        self.prof_free_hook(inner, addr);
        if local {
            let stripe = g.bitmap.stripe_of(idx);
            let pushed = self.tcache.push(class, addr, stripe);
            debug_assert!(pushed, "tcache checked non-full above");
            self.event(EventKind::FreeFastLocal, 0, 0);
        } else {
            let arena = owner.expect("resolved above");
            arena.remote.push(RemoteFree { slab: slab_off, idx: idx as u32 });
            self.event(EventKind::RemotePush, addr, arena_id as u64);
        }
        Some(Ok(()))
    }

    /// Locked free slow path: tcache overflow, morphing slabs, and every
    /// ill-formed request diverted by the fast path.
    fn free_small_locked(
        &mut self,
        inner: &NvInner,
        slab_off: PmOffset,
        arena_id: u32,
        addr: PmOffset,
        dest: PmOffset,
    ) -> PmResult<()> {
        let pool = &inner.pool;
        let strong = inner.strong();
        let arena =
            inner.arenas.get(arena_id as usize).ok_or(PmError::Corrupt("bad arena id in rtree"))?;
        let mut ai = arena.inner.timed(Some(&self.pm));
        self.event(EventKind::FreeLocked, 0, 0);

        // Old-class block of a morphing slab? Released directly, bypassing
        // the tcache (§5.2).
        if morph::find_old_block(&ai, slab_off, addr).is_some() {
            let old_class =
                ai.slabs[&slab_off].morph.as_ref().expect("morph state present").old_class;
            if inner.use_small_wal() {
                self.wal_append(inner, WalOp::Free, addr, dest, 0);
            }
            morph::release_old_block(pool, &mut self.pm, &mut ai, slab_off, addr)?;
            self.write_dest(inner, dest, 0, strong);
            inner.live_bytes.fetch_sub(class_size(old_class), Ordering::Relaxed);
            // Provenance after the commit (prof is a leaf lock; holding
            // the arena lock here is fine), before the slab can retire.
            self.prof_free_hook(inner, addr);
            inner.destroy_if_free(&mut self.pm, &self.probe, &mut ai, slab_off)?;
            return Ok(());
        }

        let vs = ai.slabs.get(&slab_off).ok_or(PmError::Corrupt("slab missing"))?;
        let class = vs.class;
        let idx = vs.block_index(addr).ok_or(PmError::NotAllocated)?;
        let g = inner.geoms.of(class);
        let bm = PmBitmap::new(slab_off + g.bitmap_off as u64, g.bitmap);
        if !bm.get(pool, idx) {
            return Err(PmError::NotAllocated);
        }
        if inner.use_small_wal() {
            self.wal_append(inner, WalOp::Free, addr, dest, 0);
        }
        if strong {
            bm.clear_persist(pool, &mut self.pm, idx);
        } else {
            bm.write_volatile(pool, idx, false);
        }
        self.write_dest(inner, dest, 0, strong);
        inner.live_bytes.fetch_sub(class_size(class), Ordering::Relaxed);
        // Provenance after the commit, before the block can be reused.
        self.prof_free_hook(inner, addr);

        // The freed block goes to *this* thread's tcache; when the tcache
        // is full it returns to its slab directly, bypassing the cache
        // (§4.2).
        let stripe = g.bitmap.stripe_of(idx);
        if !self.tcache.push(class, addr, stripe) {
            self.event(EventKind::TcacheOverflow, class as u64, 0);
            self.event(EventKind::TcacheFlush, class as u64, 1);
            if ai.return_block_to_slab(slab_off, idx) {
                inner.destroy_if_free(&mut self.pm, &self.probe, &mut ai, slab_off)?;
            }
        }
        Ok(())
    }

    // ----- large path -----

    /// Opportunistically drain other arenas' remote-free queues from a
    /// malloc slow path. `try_lock` only — an arena whose owner is busy
    /// is skipped, so this never blocks and never inverts the lock
    /// order (the caller holds no locks).
    fn drain_idle_arenas(&mut self, inner: &NvInner) {
        for a in &inner.arenas {
            if a.id == self.arena.id || a.remote.is_empty() {
                continue;
            }
            let Some(mut ai) = a.inner.try_lock() else { continue };
            if inner.drain_remote(&mut self.pm, &self.probe, a, &mut ai) > 0 {
                self.event(EventKind::RemoteDrainForeign, 0, 0);
            }
        }
    }

    fn malloc_large_aligned(
        &mut self,
        inner: &NvInner,
        size: usize,
        align: usize,
        dest: PmOffset,
    ) -> PmResult<PmOffset> {
        // A large malloc is a slow path: run the remote-free drain hook
        // before taking any shard lock.
        self.drain_idle_arenas(inner);
        let pool = &inner.pool;
        // Reserve (volatile), then WAL, then persist the extent record,
        // then commit via the dest install — each crash window is covered
        // (§4.3/§4.4). Large allocations use the WAL in both variants
        // (Table 2). Shards are probed hint-first with round-robin
        // fallback on exhaustion; the whole reserve → WAL → commit
        // sequence stays under one shard guard, so a crash can never
        // interleave half-committed records from two shards.
        let mut oom = PmError::OutOfMemory { requested: size };
        for s in inner.large.shard_order(self.arena.id as usize) {
            let mut large = inner.large.lock(s, Some(&self.pm));
            let (veh, off) = match large.alloc_deferred_aligned(pool, &mut self.pm, size, align) {
                Ok(r) => r,
                Err(e @ PmError::OutOfMemory { .. }) => {
                    oom = e;
                    continue;
                }
                Err(e) => return Err(e),
            };
            if inner.use_large_wal() {
                self.wal_append(inner, WalOp::Alloc, off, dest, size as u32);
            }
            large.commit_extent(pool, &mut self.pm, veh)?;
            let actual = large.veh(veh).map(|v| v.size).unwrap_or(size);
            drop(large);
            // Provenance before the commit: the extent record is already
            // persisted, so the address cannot be re-granted elsewhere,
            // and a survivor must have its record before the install.
            self.prof_alloc_hook(inner, off, actual);
            self.write_dest(inner, dest, off, true);
            inner.live_bytes.fetch_add(actual, Ordering::Relaxed);
            return Ok(off);
        }
        Err(oom)
    }

    fn free_large(
        &mut self,
        inner: &NvInner,
        veh: crate::large::VehId,
        addr: PmOffset,
        dest: PmOffset,
    ) -> PmResult<()> {
        let pool = &inner.pool;
        // One critical section on the owning shard (routed by the id's
        // shard tag): validate, log, zero the destination, and free, all
        // under a single lock acquisition, so a racing free cannot
        // recycle the VEH between validation and release.
        self.event(EventKind::FreeLocked, 0, 0);
        let mut large = inner.large.lock_veh(veh, Some(&self.pm)).ok_or(PmError::NotAllocated)?;
        let v = large.veh(veh).ok_or(PmError::NotAllocated)?;
        if v.off != addr {
            return Err(PmError::NotAllocated);
        }
        let size = v.size;
        if inner.use_large_wal() {
            self.wal_append(inner, WalOp::Free, addr, dest, 0);
        }
        self.write_dest(inner, dest, 0, true);
        // Provenance after the commit, before `free` returns the extent
        // to the shard's free lists (prof is a leaf lock; the shard
        // guard is still held, so the address cannot be re-granted
        // before the FREE record is fenced).
        self.prof_free_hook(inner, addr);
        large.free(pool, &mut self.pm, veh)?;
        drop(large);
        inner.live_bytes.fetch_sub(size, Ordering::Relaxed);
        Ok(())
    }

    // ----- operations -----

    fn malloc_to(&mut self, inner: &NvInner, size: usize, dest: PmOffset) -> PmResult<PmOffset> {
        inner.check_dest(dest)?;
        if size == 0 {
            return Err(PmError::InvalidRequest("zero-size allocation"));
        }
        let span = self.begin(EventKind::MallocBegin, size as u64);
        let (op, r) = match size_to_class(size) {
            Some(class) => (OpKind::MallocSmall, self.malloc_small(inner, class, size, dest)),
            None => (OpKind::MallocLarge, self.malloc_large_aligned(inner, size, PAGE, dest)),
        };
        self.end(inner, span, op, r.is_ok(), EventKind::MallocEnd, *r.as_ref().unwrap_or(&0));
        r
    }

    fn malloc_aligned_to(
        &mut self,
        inner: &NvInner,
        size: usize,
        align: usize,
        dest: PmOffset,
    ) -> PmResult<PmOffset> {
        inner.check_dest(dest)?;
        if size == 0 {
            return Err(PmError::InvalidRequest("zero-size allocation"));
        }
        if !align.is_power_of_two() {
            return Err(PmError::InvalidRequest("alignment must be a power of two"));
        }
        if align <= 8 {
            // Every block and extent base is at least 8-byte aligned.
            return self.malloc_to(inner, size, dest);
        }
        // Oversize alignment: serve a naturally aligned extent. Aligning
        // to at least a page keeps one code path — any power of two
        // below it divides the page.
        let span = self.begin(EventKind::MallocBegin, size as u64);
        let r = self.malloc_large_aligned(inner, size, align.max(PAGE), dest);
        let addr = *r.as_ref().unwrap_or(&0);
        self.end(inner, span, OpKind::MallocLarge, r.is_ok(), EventKind::MallocEnd, addr);
        r
    }

    fn free_from(&mut self, inner: &NvInner, dest: PmOffset) -> PmResult<()> {
        inner.check_dest(dest)?;
        let addr = inner.pool.read_u64(dest);
        if addr == 0 {
            return Err(PmError::NotAllocated);
        }
        let owner = inner.rtree.lookup(addr).ok_or(PmError::NotAllocated)?;
        let span = self.begin(EventKind::FreeBegin, addr);
        let r = match Owner::unpack(owner) {
            Owner::Slab { slab, arena } => self.free_small(inner, slab, arena, addr, dest),
            Owner::Extent { veh } => self.free_large(inner, veh, addr, dest),
        };
        self.end(inner, span, OpKind::Free, r.is_ok(), EventKind::FreeEnd, addr);
        r
    }

    fn flush_cache(&mut self, inner: &NvInner) {
        for class in 0..crate::size_class::NUM_CLASSES {
            let drained = self.tcache.drain(class);
            if !drained.is_empty() {
                self.event(EventKind::TcacheFlush, class as u64, drained.len() as u64);
            }
            for addr in drained {
                let slab_off = addr & !(SLAB_SIZE as u64 - 1);
                let Some(owner) = inner.rtree.lookup(addr) else { continue };
                let Owner::Slab { arena, .. } = Owner::unpack(owner) else { continue };
                let mut ai = inner.arenas[arena as usize].inner.lock();
                let Some(vs) = ai.slabs.get(&slab_off) else { continue };
                let Some(idx) = vs.block_index(addr) else { continue };
                if ai.return_block_to_slab(slab_off, idx) {
                    let _ = inner.destroy_if_free(&mut self.pm, &self.probe, &mut ai, slab_off);
                }
            }
        }
        // Drain our own arena's deferred frees too: a departing thread
        // must not leave queued blocks' volatile state stranded.
        let mut ai = self.arena.inner.lock();
        inner.drain_remote(&mut self.pm, &self.probe, &self.arena, &mut ai);
    }
}

impl AllocThread for NvThread {
    fn malloc_to(&mut self, size: usize, dest: PmOffset) -> PmResult<PmOffset> {
        self.t.malloc_to(&self.inner, size, dest)
    }

    fn malloc_aligned_to(
        &mut self,
        size: usize,
        align: usize,
        dest: PmOffset,
    ) -> PmResult<PmOffset> {
        self.t.malloc_aligned_to(&self.inner, size, align, dest)
    }

    fn free_from(&mut self, dest: PmOffset) -> PmResult<()> {
        self.t.free_from(&self.inner, dest)
    }

    fn flush_cache(&mut self) {
        self.t.flush_cache(&self.inner);
    }

    fn pm(&self) -> &PmThread {
        &self.t.pm
    }

    fn pm_mut(&mut self) -> &mut PmThread {
        &mut self.t.pm
    }
}

impl Drop for NvThread {
    fn drop(&mut self) {
        // The probe retires into the registry's total when `t` drops.
        self.flush_cache();
        self.t.arena.threads.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Per-size-class allocator statistics (diagnostics / space studies).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClassStats {
    /// Size class index.
    pub class: usize,
    /// Block size in bytes.
    pub block_size: usize,
    /// Slabs currently dedicated to this class.
    pub slabs: usize,
    /// Blocks allocated (persistent view).
    pub allocated: usize,
    /// Blocks free or cached.
    pub free: usize,
}

impl NvAllocator {
    /// Per-class slab statistics across all arenas.
    pub fn class_stats(&self) -> Vec<ClassStats> {
        let pool = &self.0.pool;
        let mut out: Vec<ClassStats> = (0..crate::size_class::NUM_CLASSES)
            .map(|c| ClassStats {
                class: c,
                block_size: crate::size_class::class_size(c),
                ..ClassStats::default()
            })
            .collect();
        for a in &self.0.arenas {
            let inner = a.inner.lock();
            for vs in inner.slabs.values() {
                let st = &mut out[vs.class];
                st.slabs += 1;
                let allocated = vs.pbitmap(&self.0.geoms).count_set(pool);
                st.allocated += allocated;
                st.free += vs.nblocks - allocated;
            }
        }
        out
    }

    /// Total internal fragmentation: bytes reserved by slabs beyond the
    /// persistent allocations they hold.
    pub fn slab_overhead_bytes(&self) -> usize {
        self.class_stats()
            .iter()
            .map(|s| {
                (s.slabs * crate::size_class::SLAB_SIZE).saturating_sub(s.allocated * s.block_size)
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::PmAllocator;
    use nvalloc_pmem::{LatencyMode, PmemConfig, PmemPool};

    #[test]
    fn class_stats_track_allocations() {
        let pool =
            PmemPool::new(PmemConfig::default().pool_size(32 << 20).latency_mode(LatencyMode::Off));
        let a = NvAllocator::create(pool, NvConfig::log()).unwrap();
        let mut t = a.thread();
        for i in 0..100 {
            t.malloc_to(64, a.root_offset(i)).unwrap();
        }
        let c64 = crate::size_class::size_to_class(64).unwrap();
        let stats = a.class_stats();
        assert_eq!(stats[c64].allocated, 100);
        assert!(stats[c64].slabs >= 1);
        assert_eq!(stats[c64].block_size, 64);
        // Other classes untouched.
        assert_eq!(stats[c64 + 1].slabs, 0);
        assert!(a.slab_overhead_bytes() > 0, "a mostly-empty slab has overhead");
        for i in 0..100 {
            t.free_from(a.root_offset(i)).unwrap();
        }
        let stats = a.class_stats();
        assert_eq!(stats[c64].allocated, 0);
    }

    /// `create` formats durably over stale media. Over a pool whose
    /// `stale` byte ranges hold persisted 0xFF bytes, extent churn runs
    /// through fast-GC chunk reuse and slow GC, and a crash recovers every
    /// live extent onto an image that audits clean.
    fn extent_churn_over_stale_media(stale: impl Fn(&Layout) -> Vec<(usize, usize)>, pmsan: bool) {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        const SIZE: usize = 64 << 20;
        const SLOTS: usize = 512;
        const LIVE_CAP: usize = 20 << 20;
        let cfg = NvConfig::log();
        let mut words = vec![0u64; SIZE / 8];
        for (start, end) in stale(&Layout::compute(&cfg, SIZE).unwrap()) {
            words[start / 8..end / 8].fill(u64::MAX);
        }
        let mode = PmemConfig::default().latency_mode(LatencyMode::Off).crash_tracking(true);
        let pool = PmemPool::from_words(words, mode.pmsan(pmsan));
        let alloc = NvAllocator::create(Arc::clone(&pool), cfg.clone()).unwrap();
        let mut t = alloc.thread();
        let mut rng = SmallRng::seed_from_u64(0xff_b00c);
        let mut live = vec![0usize; SLOTS];
        let mut live_bytes = 0;
        for _ in 0..12_000 {
            let slot = rng.gen_range(0..SLOTS);
            let shift =
                if rng.gen_bool(0.85) { rng.gen_range(14..18) } else { rng.gen_range(18..21) };
            let size = rng.gen_range(1usize << shift..2usize << shift);
            let victim = if live[slot] > 0 {
                Some(slot)
            } else if live_bytes + size > LIVE_CAP {
                (1..SLOTS).map(|d| (slot + d) % SLOTS).find(|&s| live[s] > 0)
            } else {
                None
            };
            if let Some(s) = victim {
                t.free_from(alloc.root_offset(s)).unwrap();
                live_bytes -= live[s];
                live[s] = 0;
            } else {
                t.malloc_to(size, alloc.root_offset(slot)).unwrap();
                live_bytes += size;
                live[slot] = size;
            }
        }
        let m = alloc.metrics();
        assert!(m.booklog_fast_gc_reaps > 0, "fast GC must have reaped chunks for reuse");
        assert!(m.booklog_alt_flips > 0, "slow GC must have run");
        assert_eq!(pool.pmsan_total(), 0, "{:?}", pool.pmsan_report());

        let img = PmemPool::from_crash_image(pool.crash());
        let (ralloc, _) = NvAllocator::recover(Arc::clone(&img), cfg.clone()).expect("recover");
        let rep = crate::doctor::audit_pool(&img, &cfg);
        assert!(rep.clean(), "{:?}", rep.violations);
        for (slot, &size) in live.iter().enumerate().filter(|(_, &size)| size > 0) {
            let addr = img.read_u64(ralloc.root_offset(slot));
            let usable = ralloc.usable_size(addr);
            assert!(usable.is_some_and(|u| u >= size), "slot {slot}: {size} B, got {usable:?}");
        }
        assert_eq!(img.pmsan_total(), 0, "{:?}", img.pmsan_report());
    }

    /// Every shard's booklog chunk space (its slice past the log header),
    /// which `create` leaves as it finds it.
    fn booklog_chunk_space(l: &Layout) -> Vec<(usize, usize)> {
        let cfgs = ShardedLarge::shard_cfgs(&l.large_config(&NvConfig::log()), l.large_shards);
        let slice = |c: LargeConfig| (c.booklog_base as usize, c.booklog_bytes);
        cfgs.into_iter().map(slice).map(|(b, n)| (b + LOG_HEADER_BYTES, b + n)).collect()
    }

    #[test]
    fn stale_booklog_bytes_survive_extent_churn_and_a_crash() {
        extent_churn_over_stale_media(booklog_chunk_space, false);
    }

    #[test]
    fn stale_booklog_bytes_survive_extent_churn_and_a_crash_under_pmsan() {
        extent_churn_over_stale_media(booklog_chunk_space, true);
    }

    /// Everything below the heap stale, as over an old image or one a
    /// crash left mid-format: untouched shards' log headers, roots, WALs
    /// and the region table must reach the media zeroed.
    #[test]
    fn format_over_stale_metadata_survives_extent_churn_and_a_crash() {
        extent_churn_over_stale_media(|l| vec![(0, l.heap_base as usize)], true);
    }

    #[test]
    fn layout_rejects_tiny_pools() {
        let cfg = NvConfig::log();
        assert!(Layout::compute(&cfg, 1 << 20).is_err(), "1 MiB cannot host a heap region");
        assert!(Layout::compute(&cfg, 64 << 20).is_ok());
    }

    #[test]
    fn layout_regions_are_disjoint_and_ordered() {
        let cfg = NvConfig::log().arenas(3).roots(1000);
        let l = Layout::compute(&cfg, 128 << 20).unwrap();
        assert!(l.arena_flags < l.roots);
        assert!(l.roots + (l.roots_count * 8) as u64 <= l.wal_base);
        assert!(l.region_table < l.booklog);
        assert!(l.booklog + l.booklog_bytes as u64 <= l.heap_base);
        assert_eq!(l.heap_base % crate::size_class::SLAB_SIZE as u64, 0);
        assert!(l.large_shards.is_power_of_two());
        // Profiling off: the sidelog region collapses to nothing and the
        // heap starts exactly where it would without the region.
        assert_eq!(l.prof_bytes, 0);
        assert!(l.booklog + l.booklog_bytes as u64 <= l.prof_base);
        assert!(l.prof_base + l.prof_bytes as u64 <= l.heap_base);
        // Profiling on: one 64 KiB sidelog per arena, between the booklog
        // and the (still slab-aligned) heap.
        let lp = Layout::compute(&cfg.clone().profiling(512 << 10), 128 << 20).unwrap();
        assert_eq!(lp.prof_bytes, 3 * crate::prof::PROF_LOG_BYTES);
        assert!(lp.booklog + lp.booklog_bytes as u64 <= lp.prof_base);
        assert!(lp.prof_base + lp.prof_bytes as u64 <= lp.heap_base);
        assert_eq!(lp.prof_base % 64, 0);
        assert_eq!(lp.heap_base % crate::size_class::SLAB_SIZE as u64, 0);
    }

    #[test]
    fn layout_shard_count_clamps_to_pool() {
        let cfg = NvConfig::log().arenas(8);
        let l = Layout::compute(&cfg, 256 << 20).unwrap();
        assert_eq!(l.large_shards, 8, "a large pool keeps one shard per arena");
        // A small pool cannot give 8 shards a two-region span each.
        let l = Layout::compute(&cfg, 32 << 20).unwrap();
        assert!(l.large_shards < 8 && l.large_shards.is_power_of_two());
        // An explicit request wins over the arena count (before clamping).
        let cfg = NvConfig::log().arenas(2).large_shards(4);
        assert_eq!(Layout::compute(&cfg, 256 << 20).unwrap().large_shards, 4);
        // large_shards = 1 restores the single global allocator.
        let cfg = NvConfig::log().arenas(8).large_shards(1);
        assert_eq!(Layout::compute(&cfg, 256 << 20).unwrap().large_shards, 1);
    }
}
