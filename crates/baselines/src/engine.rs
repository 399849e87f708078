//! The shared baseline-allocator engine.
//!
//! One engine, five policies: the [`Policy`](crate::Policy) selects block
//! metadata scheme, WAL behaviour, and threading model, while the pool
//! layout, extent manager (with in-place region headers), tcaches, and
//! rtree are identical across baselines — and deliberately identical in
//! *mechanism* to NVAlloc's, so benchmark deltas isolate the policies the
//! paper studies.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use nvalloc::api::{AllocThread, PmAllocator};
use nvalloc::internals::{
    BitmapLayout, GeometryTable, LargeAlloc, LargeConfig, LockStats, Owner, PmBitmap, RTree,
    TimedMutex, VehId, REGION_BYTES,
};
use nvalloc::telemetry::MetricsSnapshot;
use nvalloc::{
    class_size, size_to_class, ClassId, PmError, PmOffset, PmResult, NUM_CLASSES, SLAB_SIZE,
};
use nvalloc_pmem::{FlushKind, PmThread, PmemPool};

use crate::policy::{BaselineKind, MetaScheme, Policy, WalScheme};

/// Magic tag of a baseline-formatted pool (per kind, so recovery can sanity
/// check).
pub(crate) fn pool_magic(kind: BaselineKind) -> u64 {
    0x4241_5345_0000_0000 | kind as u64
}

pub(crate) const SLAB_MAGIC: u32 = 0xBA5E_B001;

/// Slab-header scheme codes.
pub(crate) const SCHEME_BITMAP: u8 = 1;
pub(crate) const SCHEME_STATE: u8 = 2;
pub(crate) const SCHEME_LIST: u8 = 3;

#[derive(Debug, Clone)]
pub(crate) struct BLayout {
    pub roots: PmOffset,
    pub roots_count: usize,
    pub wal_base: PmOffset,
    pub wal_bytes_per_arena: usize,
    pub region_table: PmOffset,
    pub region_table_bytes: usize,
    pub heap_base: PmOffset,
    pub heap_bytes: usize,
}

pub(crate) const WAL_ENTRIES_PER_ARENA: usize = 4096;
pub(crate) const WAL_ENTRY_BYTES: usize = 32;
/// Micro-log slots per thread (PAllocator scheme).
pub(crate) const MICRO_SLOTS: usize = 8;
/// Micro-logs reserved per arena region for per-thread WALs.
pub(crate) const MICRO_LOGS: usize = 512;

impl BLayout {
    pub(crate) fn compute(pool_size: usize, arenas: usize, roots: usize) -> PmResult<BLayout> {
        let roots_off = 64u64;
        let roots_end = roots_off + roots as u64 * 8;
        let wal_base = (roots_end + 63) & !63;
        let wal_bytes_per_arena = (WAL_ENTRIES_PER_ARENA * WAL_ENTRY_BYTES)
            .max(MICRO_LOGS * MICRO_SLOTS * WAL_ENTRY_BYTES);
        let wal_end = wal_base + (arenas * wal_bytes_per_arena) as u64;
        let region_table = (wal_end + 63) & !63;
        let region_table_bytes = 8 + 8 * (pool_size / REGION_BYTES + 2);
        let heap_base = (region_table + region_table_bytes as u64 + SLAB_SIZE as u64 - 1)
            & !(SLAB_SIZE as u64 - 1);
        if heap_base as usize + REGION_BYTES > pool_size {
            return Err(PmError::OutOfMemory { requested: REGION_BYTES });
        }
        Ok(BLayout {
            roots: roots_off,
            roots_count: roots,
            wal_base,
            wal_bytes_per_arena,
            region_table,
            region_table_bytes,
            heap_base,
            heap_bytes: pool_size - heap_base as usize,
        })
    }
}

/// Slab geometry per scheme.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BGeom {
    pub data_offset: usize,
    pub nblocks: usize,
    /// Bitmap layout (bitmap scheme only).
    pub bitmap: Option<BitmapLayout>,
}

pub(crate) fn geom_for(scheme: u8, class: ClassId, geoms: &GeometryTable) -> BGeom {
    let bs = class_size(class);
    match scheme {
        SCHEME_BITMAP => {
            let g = geoms.of(class);
            BGeom { data_offset: g.data_offset, nblocks: g.nblocks, bitmap: Some(g.bitmap) }
        }
        SCHEME_STATE => {
            // 2 B of state per block in the header (PAllocator page headers).
            let mut nb = (SLAB_SIZE - 64) / bs;
            loop {
                let doff = (64 + 2 * nb + 63) & !63;
                let fit = (SLAB_SIZE - doff) / bs;
                if fit >= nb {
                    return BGeom { data_offset: doff, nblocks: nb, bitmap: None };
                }
                nb = fit;
            }
        }
        SCHEME_LIST => BGeom { data_offset: 64, nblocks: (SLAB_SIZE - 64) / bs, bitmap: None },
        _ => unreachable!("bad scheme"),
    }
}

/// Volatile slab state.
#[derive(Debug)]
pub(crate) struct BSlab {
    pub off: PmOffset,
    pub class: ClassId,
    #[allow(dead_code)] // kept for slab-destruction policies and debugging
    pub veh: VehId,
    pub geom: BGeom,
    /// Volatile unavailability bitmap (allocated or tcache-reserved).
    taken: Vec<u64>,
    pub nfree: usize,
    /// Embedded scheme: never-yet-used frontier.
    bump: usize,
    /// Embedded scheme: volatile stack of freed block indices.
    free_stack: Vec<u32>,
    /// Embedded scheme: what the persistent chain head *should* be.
    phead: PmOffset,
    /// Embedded scheme (batched): frees not yet persisted.
    pending: Vec<u32>,
}

/// A WAL entry as seen by recovery.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BWalRecovered {
    pub op: u8,
    pub addr: PmOffset,
    pub dest: PmOffset,
    pub committed: bool,
}

impl BSlab {
    /// Recovery shell: geometry known, occupancy to be filled in by the
    /// per-baseline recovery strategy.
    pub(crate) fn new_shell(off: PmOffset, class: ClassId, veh: VehId, geom: BGeom) -> BSlab {
        BSlab::new(off, class, veh, geom)
    }

    /// Mark every block taken (nvm_malloc's deferred reconstruction).
    pub(crate) fn mark_all(&mut self) {
        for i in 0..self.geom.nblocks {
            if !self.is_taken(i) {
                self.mark(i);
            }
        }
        self.bump = self.geom.nblocks;
    }

    /// Clear every mark (GC rebuild).
    pub(crate) fn clear_all(&mut self) {
        self.taken.fill(0);
        self.nfree = self.geom.nblocks;
        self.free_stack.clear();
        self.bump = 0;
    }

    /// Mark one block taken (recovery).
    pub(crate) fn mark_index(&mut self, i: usize) {
        if !self.is_taken(i) {
            self.mark(i);
        }
    }

    /// After recovery marking, disable the bump frontier so free blocks are
    /// found by scan (bitmap schemes) or the free stack (embedded).
    pub(crate) fn seal_bump(&mut self) {
        self.bump = self.geom.nblocks;
    }

    /// Rebuild the embedded free stack from the unmarked blocks.
    pub(crate) fn rebuild_free_stack(&mut self) {
        self.free_stack =
            (0..self.geom.nblocks).filter(|&i| !self.is_taken(i)).map(|i| i as u32).collect();
    }

    fn new(off: PmOffset, class: ClassId, veh: VehId, geom: BGeom) -> BSlab {
        BSlab {
            off,
            class,
            veh,
            geom,
            taken: vec![0; geom.nblocks.div_ceil(64).max(1)],
            nfree: geom.nblocks,
            bump: 0,
            free_stack: Vec::new(),
            phead: 0,
            pending: Vec::new(),
        }
    }

    pub(crate) fn block_addr(&self, i: usize) -> PmOffset {
        self.off + (self.geom.data_offset + i * class_size(self.class)) as u64
    }

    pub(crate) fn block_index(&self, addr: PmOffset) -> Option<usize> {
        let rel = addr.checked_sub(self.off + self.geom.data_offset as u64)?;
        let bs = class_size(self.class) as u64;
        if rel % bs != 0 {
            return None;
        }
        let i = (rel / bs) as usize;
        (i < self.geom.nblocks).then_some(i)
    }

    pub(crate) fn is_taken(&self, i: usize) -> bool {
        self.taken[i / 64] >> (i % 64) & 1 == 1
    }

    fn mark(&mut self, i: usize) {
        debug_assert!(!self.is_taken(i));
        self.taken[i / 64] |= 1 << (i % 64);
        self.nfree -= 1;
    }

    pub(crate) fn unmark(&mut self, i: usize) {
        debug_assert!(self.is_taken(i));
        self.taken[i / 64] &= !(1 << (i % 64));
        self.nfree += 1;
    }

    /// Volatile reservation of one block.
    fn take(&mut self) -> Option<usize> {
        if let Some(i) = self.free_stack.pop() {
            self.mark(i as usize);
            return Some(i as usize);
        }
        if self.bump < self.geom.nblocks {
            let i = self.bump;
            self.bump += 1;
            self.mark(i);
            return Some(i);
        }
        // Bitmap/state schemes track frees through `taken` directly.
        if self.nfree > 0 {
            for (w, word) in self.taken.iter_mut().enumerate() {
                if *word != u64::MAX {
                    let bit = word.trailing_ones() as usize;
                    let i = w * 64 + bit;
                    if i >= self.geom.nblocks {
                        return None;
                    }
                    *word |= 1 << bit;
                    self.nfree -= 1;
                    return Some(i);
                }
            }
        }
        None
    }

    #[allow(dead_code)] // baselines keep empty slabs segregated (§3.2)
    fn completely_free(&self) -> bool {
        self.nfree == self.geom.nblocks
    }
}

/// One heap: a set of slabs and per-class freelists. Shared arenas wrap it
/// in a mutex; PAllocator-style threads own one (still mutexed so remote
/// frees can reach it).
#[derive(Debug, Default)]
pub(crate) struct BHeap {
    pub slabs: HashMap<PmOffset, BSlab>,
    pub freelist: Vec<VecDeque<PmOffset>>,
}

impl BHeap {
    pub(crate) fn new() -> BHeap {
        BHeap {
            slabs: HashMap::new(),
            freelist: (0..NUM_CLASSES).map(|_| VecDeque::new()).collect(),
        }
    }
}

/// Per-arena WAL ring (PerOp schemes). The lock models PMDK's shared redo
/// lanes.
#[derive(Debug)]
pub(crate) struct BWal {
    base: PmOffset,
    cap: usize,
    next: usize,
}

impl BWal {
    fn entry_off(&self, slot: usize) -> PmOffset {
        self.base + (slot * WAL_ENTRY_BYTES) as u64
    }

    /// Write a redo entry into a *fixed* lane slot (PMDK lane model).
    #[allow(clippy::too_many_arguments)]
    fn write_entry_at(
        &mut self,
        pool: &PmemPool,
        t: &mut PmThread,
        slot: usize,
        addr: PmOffset,
        dest: PmOffset,
        size: u32,
        alloc: bool,
    ) -> PmOffset {
        let off = self.entry_off(slot);
        pool.write_u64(off, addr);
        pool.write_u64(off + 8, dest);
        pool.write_u64(off + 16, (size as u64) << 32 | if alloc { 1 } else { 2 });
        pool.write_u64(off + 24, 0);
        pool.charge_store(t, off, WAL_ENTRY_BYTES);
        pool.flush(t, off, WAL_ENTRY_BYTES, FlushKind::Wal);
        pool.fence(t);
        off
    }

    /// Write a redo entry; returns its offset for the later finish mark.
    fn write_entry(
        &mut self,
        pool: &PmemPool,
        t: &mut PmThread,
        addr: PmOffset,
        dest: PmOffset,
        size: u32,
        alloc: bool,
    ) -> PmOffset {
        let slot = self.next % self.cap;
        self.next += 1;
        let off = self.entry_off(slot);
        pool.write_u64(off, addr);
        pool.write_u64(off + 8, dest);
        pool.write_u64(off + 16, (size as u64) << 32 | if alloc { 1 } else { 2 });
        pool.write_u64(off + 24, 0); // finish mark cleared
        pool.charge_store(t, off, WAL_ENTRY_BYTES);
        pool.flush(t, off, WAL_ENTRY_BYTES, FlushKind::Wal);
        pool.fence(t);
        off
    }
}

/// Mark a WAL entry finished (commit mark or invalidation — either way a
/// second flush of the entry's own cache line: the §3.1 reflush).
pub(crate) fn finish_entry(pool: &PmemPool, t: &mut PmThread, entry: PmOffset) {
    pool.write_u64(entry + 24, 1);
    pool.charge_store(t, entry + 24, 8);
    pool.flush(t, entry + 24, 8, FlushKind::Wal);
    pool.fence(t);
}

/// A heap behind a counted lock: an arena's shared heap, or one
/// thread's own heap in the per-thread-heap policies.
pub(crate) type HeapLock = Arc<TimedMutex<BHeap>>;

/// A fresh, empty heap. Every baseline mutex keeps its [`LockStats`]
/// beside it, so the Fig. 22 harness can print contended nanoseconds per
/// op for every series, as it does for NVAlloc's shard locks.
pub(crate) fn new_heap() -> HeapLock {
    Arc::new(TimedMutex::new(BHeap::new(), true))
}

#[derive(Debug)]
pub(crate) struct BArena {
    pub heap: HeapLock,
    pub wal: TimedMutex<BWal>,
    pub threads: AtomicUsize,
    pub wal_next_micro: AtomicUsize,
    pub wal_base: PmOffset,
}

impl BArena {
    /// An arena whose WAL lane starts at `wal_base`. The first cache line
    /// of the lane is the PMDK-style lane header; entries start behind it
    /// (after recovery the ring restarts at slot 0).
    pub(crate) fn new(wal_base: PmOffset) -> BArena {
        let wal = BWal { base: wal_base + 64, cap: WAL_ENTRIES_PER_ARENA - 2, next: 0 };
        BArena {
            heap: new_heap(),
            wal: TimedMutex::new(wal, true),
            threads: AtomicUsize::new(0),
            wal_next_micro: AtomicUsize::new(0),
            wal_base,
        }
    }
}

pub(crate) struct BInner {
    pub pool: Arc<PmemPool>,
    pub kind: BaselineKind,
    pub policy: Policy,
    pub layout: BLayout,
    pub geoms: GeometryTable,
    pub rtree: Arc<RTree>,
    pub large: TimedMutex<LargeAlloc>,
    pub arenas: Vec<Arc<BArena>>,
    /// PAllocator mode: one heap per thread, registered here for cross-
    /// thread frees and recovery.
    pub thread_heaps: Mutex<Vec<HeapLock>>,
    pub live_bytes: AtomicUsize,
    #[allow(dead_code)] // reserved for cross-arena ordering diagnostics
    pub seq: AtomicU64,
}

impl std::fmt::Debug for BInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BInner").field("kind", &self.kind).finish_non_exhaustive()
    }
}

/// A baseline allocator handle (clone freely).
#[derive(Debug, Clone)]
pub struct Baseline(pub(crate) Arc<BInner>);

impl Baseline {
    /// Format `pool` for baseline `kind` and return the allocator.
    ///
    /// # Errors
    /// [`PmError::OutOfMemory`] if the pool is too small.
    pub fn create(pool: Arc<PmemPool>, kind: BaselineKind) -> PmResult<Baseline> {
        Self::create_with_roots(pool, kind, 1 << 16)
    }

    /// [`Baseline::create`] with a custom root-slot count.
    ///
    /// # Errors
    /// [`PmError::OutOfMemory`] if the pool is too small.
    pub fn create_with_roots(
        pool: Arc<PmemPool>,
        kind: BaselineKind,
        roots: usize,
    ) -> PmResult<Baseline> {
        let policy = kind.policy();
        let layout = BLayout::compute(pool.size(), policy.arenas, roots)?;
        let mut t = pool.register_thread();
        // Zero the metadata area durably: over an old image, words left in
        // DRAM only would let the persistent image keep stale roots, WAL
        // entries and region-table words. Fresh media costs nothing.
        pool.persist_zero(&mut t, 0, layout.heap_base as usize, FlushKind::Meta);

        let rtree = Arc::new(RTree::new());
        let large = LargeAlloc::new(
            &pool,
            LargeConfig {
                heap_base: layout.heap_base,
                heap_bytes: layout.heap_bytes,
                log_bookkeeping: false, // in-place region headers: §3.3
                booklog_base: 0,
                booklog_bytes: 0,
                booklog_stripes: 1,
                booklog_gc: false,
                slow_gc_threshold: usize::MAX,
                region_table_base: layout.region_table,
                region_table_bytes: layout.region_table_bytes,
                shard_tag: 0, // baselines run a single unsharded large allocator
            },
            Arc::clone(&rtree),
        );

        let arenas = (0..policy.arenas)
            .map(|i| {
                Arc::new(BArena::new(layout.wal_base + (i * layout.wal_bytes_per_arena) as u64))
            })
            .collect();

        pool.write_u64(8, roots as u64);
        pool.persist_u64(&mut t, 0, pool_magic(kind), FlushKind::Meta);
        pool.flush(&mut t, 8, 8, FlushKind::Meta);
        Ok(Baseline(Arc::new(BInner {
            pool,
            kind,
            policy,
            layout,
            geoms: GeometryTable::new(1), // sequential bitmaps only
            rtree,
            large: TimedMutex::new(large, true),
            arenas,
            thread_heaps: Mutex::new(Vec::new()),
            live_bytes: AtomicUsize::new(0),
            seq: AtomicU64::new(1),
        })))
    }

    /// Which baseline this is.
    pub fn kind(&self) -> BaselineKind {
        self.0.kind
    }
}

impl PmAllocator for Baseline {
    fn name(&self) -> String {
        self.0.policy.name.to_string()
    }

    fn pool(&self) -> &Arc<PmemPool> {
        &self.0.pool
    }

    fn thread(&self) -> Box<dyn AllocThread> {
        let inner = Arc::clone(&self.0);
        let (arena, own_heap, heap_idx) = if inner.policy.per_thread_heaps {
            let heap = new_heap();
            let mut reg = inner.thread_heaps.lock();
            reg.push(Arc::clone(&heap));
            let idx = reg.len() - 1;
            drop(reg);
            (Arc::clone(&inner.arenas[0]), Some(heap), idx as u32)
        } else {
            let arena = inner
                .arenas
                .iter()
                .min_by_key(|a| a.threads.load(Ordering::Relaxed))
                .expect("arena")
                .clone();
            arena.threads.fetch_add(1, Ordering::Relaxed);
            (arena, None, 0)
        };
        let micro = arena.wal_next_micro.fetch_add(1, Ordering::Relaxed) % MICRO_LOGS;
        let micro_base = arena.wal_base + (micro * MICRO_SLOTS * WAL_ENTRY_BYTES) as u64;
        Box::new(BaselineThread {
            pm: self.0.pool.register_thread(),
            inner,
            arena,
            own_heap,
            heap_idx,
            tcache: (0..NUM_CLASSES).map(|_| Vec::new()).collect(),
            micro_base,
            micro_next: 0,
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
        self.0.large.lock().mapped_bytes()
    }

    fn peak_mapped_bytes(&self) -> usize {
        self.0.large.lock().peak_mapped()
    }

    fn live_bytes(&self) -> usize {
        self.0.live_bytes.load(Ordering::Relaxed)
    }

    fn metrics(&self) -> MetricsSnapshot {
        // Baselines carry no internal telemetry beyond their mutexes'
        // statistics; surface those, summed over every mutex, so the
        // Fig. 22 harness can report lock wait per op for every series.
        let heaps = self.0.thread_heaps.lock();
        let locks: Vec<&LockStats> = std::iter::once(self.0.large.stats())
            .chain(self.0.arenas.iter().flat_map(|a| [a.heap.stats(), a.wal.stats()]))
            .chain(heaps.iter().map(|h| h.stats()))
            .collect();
        let sum = |f: fn(&LockStats) -> u64| locks.iter().map(|l| f(l)).sum();
        MetricsSnapshot {
            lock_wait_ns: sum(LockStats::wait_ns),
            lock_hold_ns: sum(LockStats::hold_ns),
            large_lock_acquires: sum(LockStats::acquires),
            large_lock_contended: sum(LockStats::contended),
            ..MetricsSnapshot::default()
        }
    }

    fn exit(&self) {
        // Flush slab headers/metadata so a clean image is recoverable.
        let pool = &self.0.pool;
        let mut t = pool.register_thread();
        let flush_heap = |heap: &BHeap, t: &mut PmThread| {
            for s in heap.slabs.values() {
                pool.flush(t, s.off, s.geom.data_offset, FlushKind::Meta);
            }
        };
        for a in &self.0.arenas {
            flush_heap(&a.heap.lock(), &mut t);
        }
        for h in self.0.thread_heaps.lock().iter() {
            flush_heap(&h.lock(), &mut t);
        }
        pool.flush(&mut t, self.0.layout.roots, self.0.layout.roots_count * 8, FlushKind::Meta);
        pool.fence(&mut t);
    }
}

/// A per-thread baseline handle.
#[derive(Debug)]
pub struct BaselineThread {
    pub(crate) inner: Arc<BInner>,
    pm: PmThread,
    arena: Arc<BArena>,
    /// PAllocator mode: this thread's private heap.
    own_heap: Option<HeapLock>,
    heap_idx: u32,
    tcache: Vec<Vec<PmOffset>>,
    micro_base: PmOffset,
    micro_next: usize,
}

impl BaselineThread {
    fn policy(&self) -> Policy {
        self.inner.policy
    }

    /// Write + flush a micro-log entry (PAllocator); returns its offset.
    fn micro_entry(&mut self, addr: PmOffset, dest: PmOffset, size: u32, alloc: bool) -> PmOffset {
        let pool = &self.inner.pool;
        let slot = self.micro_next % MICRO_SLOTS;
        self.micro_next += 1;
        let off = self.micro_base + (slot * WAL_ENTRY_BYTES) as u64;
        pool.write_u64(off, addr);
        pool.write_u64(off + 8, dest);
        pool.write_u64(off + 16, (size as u64) << 32 | if alloc { 1 } else { 2 });
        pool.write_u64(off + 24, 0);
        pool.charge_store(&mut self.pm, off, WAL_ENTRY_BYTES);
        pool.flush(&mut self.pm, off, WAL_ENTRY_BYTES, FlushKind::Wal);
        pool.fence(&mut self.pm);
        off
    }

    fn wal_begin(
        &mut self,
        addr: PmOffset,
        dest: PmOffset,
        size: u32,
        alloc: bool,
    ) -> Vec<PmOffset> {
        match self.policy().wal {
            WalScheme::None => Vec::new(),
            WalScheme::ThreadMicroInvalidate => vec![self.micro_entry(addr, dest, size, alloc)],
            WalScheme::PerOpCommit | WalScheme::PerOpInvalidate => {
                let pool = Arc::clone(&self.inner.pool);
                // PMDK-style transactions update their lane header at tx
                // begin (and again at commit) and snapshot the destination
                // into an undo record besides the redo entry; the commit
                // invalidates every record. The lane-header line is the
                // per-op reflush hotspot of §3.1.
                if self.policy().wal == WalScheme::PerOpCommit {
                    self.bump_lane(&pool);
                }
                let wal_arc = Arc::clone(&self.arena);
                let mut wal = wal_arc.wal.timed(None);
                let mut entries = Vec::with_capacity(1 + self.policy().extra_tx_entries);
                if self.policy().wal == WalScheme::PerOpCommit {
                    // PMDK lanes re-use *fixed* undo/redo slots for every
                    // transaction (the lane log is reset at commit), so each
                    // operation re-flushes the same lane-log lines — the
                    // §3.1 pathology at its purest.
                    let extra = self.policy().extra_tx_entries;
                    for k in 0..extra {
                        entries.push(wal.write_entry_at(
                            &pool,
                            &mut self.pm,
                            k,
                            dest,
                            dest,
                            8,
                            alloc,
                        ));
                    }
                    entries.push(wal.write_entry_at(
                        &pool,
                        &mut self.pm,
                        extra,
                        addr,
                        dest,
                        size,
                        alloc,
                    ));
                } else {
                    for _ in 0..self.policy().extra_tx_entries {
                        entries.push(wal.write_entry(&pool, &mut self.pm, dest, dest, 8, alloc));
                    }
                    entries.push(wal.write_entry(&pool, &mut self.pm, addr, dest, size, alloc));
                }
                entries
            }
        }
    }

    fn wal_finish(&mut self, entries: Vec<PmOffset>) {
        let pool = Arc::clone(&self.inner.pool);
        let had = !entries.is_empty();
        for off in entries {
            finish_entry(&pool, &mut self.pm, off);
        }
        if had && self.policy().wal == WalScheme::PerOpCommit {
            self.bump_lane(&pool);
        }
    }

    /// Write + flush the arena's lane header (tx stage change).
    fn bump_lane(&mut self, pool: &PmemPool) {
        let lane = self.arena.wal_base;
        let v = pool.read_u64(lane).wrapping_add(1);
        pool.write_u64(lane, v);
        pool.charge_store(&mut self.pm, lane, 8);
        pool.flush(&mut self.pm, lane, 8, FlushKind::Wal);
        pool.fence(&mut self.pm);
    }

    /// Persist block metadata for an alloc/free, per scheme. Caller holds
    /// the owning heap's lock (needed for embedded chain state).
    fn persist_block_meta(&mut self, slab: &mut BSlab, idx: usize, alloc: bool) {
        let pool = Arc::clone(&self.inner.pool);
        match self.policy().meta {
            MetaScheme::SeqBitmap => {
                let bm = PmBitmap::new(slab.off + 64, slab.geom.bitmap.expect("bitmap scheme"));
                if self.policy().strong {
                    if alloc {
                        bm.set_persist(&pool, &mut self.pm, idx);
                    } else {
                        bm.clear_persist(&pool, &mut self.pm, idx);
                    }
                } else {
                    bm.write_volatile(&pool, idx, alloc);
                }
            }
            MetaScheme::StateArray => {
                let off = slab.off + 64 + (idx * 2) as u64;
                pool.write_u16(off, if alloc { 1 } else { 0 });
                pool.charge_store(&mut self.pm, off, 2);
                if self.policy().strong {
                    pool.flush(&mut self.pm, off, 2, FlushKind::Meta);
                    pool.fence(&mut self.pm);
                }
            }
            MetaScheme::EmbeddedList { .. } => {
                // Allocation consumes from the volatile view only (the
                // stale persistent chain is repaired by post-crash GC);
                // frees are handled by the caller, which owns the
                // batching/availability ordering.
            }
        }
    }

    /// Link freed blocks onto the persistent chain: one next-pointer write
    /// and flush per block, one header-head update and flush per call (the
    /// per-free header flush is Makalu's reflush hotspot).
    fn push_chain(&mut self, pool: &PmemPool, slab: &mut BSlab, blocks: &[u32]) {
        for &i in blocks {
            let baddr = slab.block_addr(i as usize);
            pool.write_u64(baddr, slab.phead);
            pool.charge_store(&mut self.pm, baddr, 8);
            pool.flush(&mut self.pm, baddr, 8, FlushKind::Meta);
            slab.phead = baddr;
        }
        // Header word 2 holds the chain head.
        pool.write_u64(slab.off + 16, slab.phead);
        pool.charge_store(&mut self.pm, slab.off + 16, 8);
        pool.flush(&mut self.pm, slab.off + 16, 8, FlushKind::Meta);
        pool.fence(&mut self.pm);
    }

    /// The heap that owns `heap_idx` (per-thread mode) or this arena's heap.
    fn heap_for(&self, idx: u32) -> HeapLock {
        if self.policy().per_thread_heaps {
            Arc::clone(&self.inner.thread_heaps.lock()[idx as usize])
        } else {
            // Arena heaps are found through the arena list; idx stores the
            // arena id in that mode.
            unreachable!("arena mode resolves heaps via arena list")
        }
    }

    fn refill(&mut self, class: ClassId) -> PmResult<()> {
        let inner = Arc::clone(&self.inner);
        let pool = &inner.pool;
        let heap_arc;
        let mut heap = if let Some(h) = &self.own_heap {
            heap_arc = Arc::clone(h);
            heap_arc.timed(None)
        } else {
            self.arena.heap.timed(None)
        };
        // Try existing freelist slabs.
        let cap = self.policy().tcache_cap.max(1);
        let mut filled = 0;
        while filled < cap {
            let Some(&soff) = heap.freelist[class].front() else { break };
            let slab = heap.slabs.get_mut(&soff).expect("freelist slab");
            match slab.take() {
                Some(i) => {
                    self.tcache[class].push(slab.block_addr(i));
                    filled += 1;
                    if slab.nfree == 0 {
                        heap.freelist[class].pop_front();
                    }
                }
                None => {
                    heap.freelist[class].pop_front();
                }
            }
        }
        if filled > 0 {
            return Ok(());
        }
        // New slab (static segregation: never repurpose another class's).
        let (veh, off) = inner.large.timed(None).alloc_aligned(
            pool,
            &mut self.pm,
            SLAB_SIZE,
            SLAB_SIZE,
            true,
        )?;
        let scheme = match self.policy().meta {
            MetaScheme::SeqBitmap => SCHEME_BITMAP,
            MetaScheme::StateArray => SCHEME_STATE,
            MetaScheme::EmbeddedList { .. } => SCHEME_LIST,
        };
        let geom = geom_for(scheme, class, &inner.geoms);
        // Persistent slab header: word0 magic|class|scheme, word2 chain head.
        pool.write_u64(off, SLAB_MAGIC as u64 | (class as u64) << 32 | (scheme as u64) << 48);
        pool.write_u64(off + 16, 0);
        if let Some(bm) = geom.bitmap {
            PmBitmap::new(off + 64, bm).clear_all(pool);
        } else if scheme == SCHEME_STATE {
            pool.fill_bytes(off + 64, 2 * geom.nblocks, 0);
        }
        pool.charge_store(&mut self.pm, off, geom.data_offset);
        pool.flush(&mut self.pm, off, geom.data_offset, FlushKind::Meta);
        pool.fence(&mut self.pm);

        let owner_idx =
            if self.policy().per_thread_heaps { self.heap_idx } else { self.arena_id() };
        inner.rtree.insert_range(
            off,
            SLAB_SIZE,
            Owner::Slab { slab: off, arena: owner_idx }.pack(),
        );
        let mut slab = BSlab::new(off, class, veh, geom);
        let mut filled = 0;
        while filled < cap {
            match slab.take() {
                Some(i) => {
                    self.tcache[class].push(slab.block_addr(i));
                    filled += 1;
                }
                None => break,
            }
        }
        if slab.nfree > 0 {
            heap.freelist[class].push_back(off);
        }
        heap.slabs.insert(off, slab);
        Ok(())
    }

    fn arena_id(&self) -> u32 {
        self.inner
            .arenas
            .iter()
            .position(|a| Arc::ptr_eq(a, &self.arena))
            .expect("arena registered") as u32
    }

    fn malloc_small(&mut self, class: ClassId, size: usize, dest: PmOffset) -> PmResult<PmOffset> {
        let addr = match self.tcache[class].pop() {
            Some(a) => a,
            None => {
                self.refill(class)?;
                self.tcache[class].pop().ok_or(PmError::OutOfMemory { requested: size })?
            }
        };
        let entry = self.wal_begin(addr, dest, size as u32, true);
        // Block metadata (needs the owning heap's slab).
        self.with_owner_heap(addr, |this, heap, slab_off| {
            let slab = heap.slabs.get_mut(&slab_off).expect("checked");
            let idx = slab.block_index(addr).expect("own block");
            this.persist_block_meta(slab, idx, true);
        })?;
        let pool = Arc::clone(&self.inner.pool);
        if self.policy().strong {
            // Destination slots are application-owned locations (Data).
            pool.persist_u64(&mut self.pm, dest, addr, FlushKind::Data);
        } else {
            pool.write_u64(dest, addr);
            pool.charge_store(&mut self.pm, dest, 8);
        }
        self.wal_finish(entry);
        self.inner.live_bytes.fetch_add(class_size(class), Ordering::Relaxed);
        Ok(addr)
    }

    /// Run `f` with the heap owning `addr` locked (the slab lives at
    /// `addr & !(SLAB_SIZE-1)` inside it).
    fn with_owner_heap<R>(
        &mut self,
        addr: PmOffset,
        f: impl FnOnce(&mut Self, &mut BHeap, PmOffset) -> R,
    ) -> PmResult<R> {
        let slab_off = addr & !(SLAB_SIZE as u64 - 1);
        let owner = self.inner.rtree.lookup(addr).ok_or(PmError::NotAllocated)?;
        let Owner::Slab { arena: idx, .. } = Owner::unpack(owner) else {
            return Err(PmError::NotAllocated);
        };
        let heap_arc = if self.policy().per_thread_heaps {
            self.heap_for(idx)
        } else {
            Arc::clone(&self.inner.arenas[idx as usize].heap)
        };
        let mut heap = heap_arc.timed(None);
        if !heap.slabs.contains_key(&slab_off) {
            return Err(PmError::Corrupt("slab missing"));
        }
        Ok(f(self, &mut heap, slab_off))
    }

    fn free_small(&mut self, addr: PmOffset, dest: PmOffset) -> PmResult<()> {
        let entry = self.wal_begin(addr, dest, 0, false);
        let pool = Arc::clone(&self.inner.pool);
        let strong = self.policy().strong;
        let embedded = matches!(self.policy().meta, MetaScheme::EmbeddedList { .. });
        let cache_room = !embedded;
        let tcache_cap = self.policy().tcache_cap;
        let mut class = 0;
        let mut to_tcache = false;
        self.with_owner_heap(addr, |this, heap, slab_off| -> PmResult<()> {
            let slab = heap.slabs.get_mut(&slab_off).expect("checked");
            let idx = slab.block_index(addr).ok_or(PmError::NotAllocated)?;
            if !slab.is_taken(idx) {
                return Err(PmError::NotAllocated);
            }
            class = slab.class;
            this.persist_block_meta(slab, idx, false);
            let slab = heap.slabs.get_mut(&slab_off).expect("checked");
            if cache_room && this.tcache[class].len() < tcache_cap {
                // Block stays reserved (`taken`) while parked in the
                // freeing thread's tcache.
                to_tcache = true;
                return Ok(());
            }
            if let MetaScheme::EmbeddedList { persist_every_free, batch } = this.policy().meta {
                let pool2 = Arc::clone(&this.inner.pool);
                if persist_every_free {
                    // Makalu: chain the block immediately (block link +
                    // header head, flushed), then it becomes available.
                    this.push_chain(&pool2, slab, &[idx as u32]);
                    let was_exhausted = slab.nfree == 0;
                    slab.unmark(idx);
                    slab.free_stack.push(idx as u32);
                    if was_exhausted {
                        heap.freelist[class].push_back(slab_off);
                    }
                } else {
                    // Ralloc: defer; the block stays reserved (`taken`)
                    // until the batch is chained — reusing it earlier
                    // would let the chain write clobber live data.
                    slab.pending.push(idx as u32);
                    if slab.pending.len() >= batch {
                        let pending = std::mem::take(&mut slab.pending);
                        this.push_chain(&pool2, slab, &pending);
                        let was_exhausted = slab.nfree == 0;
                        for &i in &pending {
                            slab.unmark(i as usize);
                            slab.free_stack.push(i);
                        }
                        if was_exhausted && slab.nfree > 0 {
                            heap.freelist[class].push_back(slab_off);
                        }
                    }
                }
                return Ok(());
            }
            // Bitmap/state schemes: return the block to the slab.
            let was_exhausted = slab.nfree == 0;
            slab.unmark(idx);
            if was_exhausted {
                heap.freelist[class].push_back(slab_off);
            }
            Ok(())
        })??;
        if to_tcache {
            self.tcache[class].push(addr);
        }
        if strong {
            pool.persist_u64(&mut self.pm, dest, 0, FlushKind::Data);
        } else {
            pool.write_u64(dest, 0);
            pool.charge_store(&mut self.pm, dest, 8);
        }
        self.wal_finish(entry);
        self.inner.live_bytes.fetch_sub(class_size(class), Ordering::Relaxed);
        Ok(())
    }

    fn malloc_large(&mut self, size: usize, dest: PmOffset) -> PmResult<PmOffset> {
        let inner = Arc::clone(&self.inner);
        let pool = &inner.pool;
        let (veh, off) = inner.large.timed(None).alloc(pool, &mut self.pm, size, false)?;
        let actual = inner.large.timed(None).veh(veh).map(|v| v.size).unwrap_or(size);
        let entry = self.wal_begin(off, dest, size as u32, true);
        if self.policy().strong {
            pool.persist_u64(&mut self.pm, dest, off, FlushKind::Data);
        } else {
            pool.write_u64(dest, off);
            pool.charge_store(&mut self.pm, dest, 8);
        }
        self.wal_finish(entry);
        inner.live_bytes.fetch_add(actual, Ordering::Relaxed);
        Ok(off)
    }

    fn free_large(&mut self, veh: VehId, addr: PmOffset, dest: PmOffset) -> PmResult<()> {
        let inner = Arc::clone(&self.inner);
        let pool = &inner.pool;
        {
            let large = inner.large.timed(None);
            let v = large.veh(veh).ok_or(PmError::NotAllocated)?;
            if v.off != addr {
                return Err(PmError::NotAllocated);
            }
        }
        let entry = self.wal_begin(addr, dest, 0, false);
        if self.policy().strong {
            pool.persist_u64(&mut self.pm, dest, 0, FlushKind::Data);
        } else {
            pool.write_u64(dest, 0);
            pool.charge_store(&mut self.pm, dest, 8);
        }
        let mut large = inner.large.timed(None);
        let size = large.veh(veh).map(|v| v.size).unwrap_or(0);
        large.free(pool, &mut self.pm, veh)?;
        drop(large);
        self.wal_finish(entry);
        inner.live_bytes.fetch_sub(size, Ordering::Relaxed);
        Ok(())
    }
}

impl AllocThread for BaselineThread {
    fn malloc_to(&mut self, size: usize, dest: PmOffset) -> PmResult<PmOffset> {
        if !dest.is_multiple_of(8)
            || (dest as usize).checked_add(8).is_none_or(|e| e > self.inner.pool.size())
        {
            return Err(PmError::InvalidRequest("dest must be an 8-byte-aligned pool slot"));
        }
        if size == 0 {
            return Err(PmError::InvalidRequest("zero-size allocation"));
        }
        match size_to_class(size) {
            Some(class) => self.malloc_small(class, size, dest),
            None => self.malloc_large(size, dest),
        }
    }

    fn free_from(&mut self, dest: PmOffset) -> PmResult<()> {
        if !dest.is_multiple_of(8)
            || (dest as usize).checked_add(8).is_none_or(|e| e > self.inner.pool.size())
        {
            return Err(PmError::InvalidRequest("dest must be an 8-byte-aligned pool slot"));
        }
        let addr = self.inner.pool.read_u64(dest);
        if addr == 0 {
            return Err(PmError::NotAllocated);
        }
        match self.inner.rtree.lookup(addr).map(Owner::unpack) {
            Some(Owner::Slab { .. }) => self.free_small(addr, dest),
            Some(Owner::Extent { veh }) => self.free_large(veh, addr, dest),
            None => Err(PmError::NotAllocated),
        }
    }

    fn flush_cache(&mut self) {
        for class in 0..NUM_CLASSES {
            let cached = std::mem::take(&mut self.tcache[class]);
            for addr in cached {
                let _ = self.with_owner_heap(addr, |_, heap, slab_off| {
                    let slab = heap.slabs.get_mut(&slab_off).expect("checked");
                    if let Some(idx) = slab.block_index(addr) {
                        if slab.is_taken(idx) {
                            let was_exhausted = slab.nfree == 0;
                            slab.unmark(idx);
                            if was_exhausted {
                                heap.freelist[slab.class].push_back(slab_off);
                            }
                        }
                    }
                });
            }
        }
        // Flush pending embedded-list batches.
        if let MetaScheme::EmbeddedList { persist_every_free: false, .. } = self.policy().meta {
            let inner = Arc::clone(&self.inner);
            let pool = Arc::clone(&inner.pool);
            let heaps: Vec<HeapLock> = if self.policy().per_thread_heaps {
                inner.thread_heaps.lock().clone()
            } else {
                inner.arenas.iter().map(|a| Arc::clone(&a.heap)).collect()
            };
            for h in heaps {
                let mut heap = h.timed(None);
                let offs: Vec<u64> = heap.slabs.keys().copied().collect();
                for off in offs {
                    let slab = heap.slabs.get_mut(&off).expect("listed");
                    if slab.pending.is_empty() {
                        continue;
                    }
                    let pending = std::mem::take(&mut slab.pending);
                    self.push_chain(&pool, slab, &pending);
                    let class = slab.class;
                    let was_exhausted = slab.nfree == 0;
                    for &i in &pending {
                        slab.unmark(i as usize);
                        slab.free_stack.push(i);
                    }
                    if was_exhausted && slab.nfree > 0 {
                        heap.freelist[class].push_back(off);
                    }
                }
            }
        }
    }

    fn pm(&self) -> &PmThread {
        &self.pm
    }

    fn pm_mut(&mut self) -> &mut PmThread {
        &mut self.pm
    }
}

impl Drop for BaselineThread {
    fn drop(&mut self) {
        self.flush_cache();
        if !self.policy().per_thread_heaps {
            self.arena.threads.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvalloc_pmem::LatencyMode;

    #[test]
    fn layout_regions_disjoint() {
        let l = BLayout::compute(256 << 20, 4, 1 << 16).unwrap();
        assert!(l.roots + (l.roots_count * 8) as u64 <= l.wal_base);
        let wal_end = l.wal_base + (4 * l.wal_bytes_per_arena) as u64;
        assert!(wal_end <= l.region_table);
        assert!(l.region_table + l.region_table_bytes as u64 <= l.heap_base);
        assert_eq!(l.heap_base % SLAB_SIZE as u64, 0);
        assert!(BLayout::compute(1 << 20, 4, 1 << 16).is_err(), "tiny pools rejected");
    }

    #[test]
    fn geometry_per_scheme() {
        let geoms = GeometryTable::new(1);
        let c = nvalloc::size_to_class(64).unwrap();
        let bm = geom_for(SCHEME_BITMAP, c, &geoms);
        assert!(bm.bitmap.is_some());
        let st = geom_for(SCHEME_STATE, c, &geoms);
        assert!(st.bitmap.is_none());
        assert!(st.data_offset >= 64 + 2 * st.nblocks, "state array fits in header");
        let ls = geom_for(SCHEME_LIST, c, &geoms);
        assert_eq!(ls.data_offset, 64);
        assert!(ls.nblocks > st.nblocks, "embedded scheme has the least overhead");
        for g in [bm, st, ls] {
            assert!(g.data_offset + g.nblocks * 64 <= SLAB_SIZE);
        }
    }

    #[test]
    fn bslab_take_unmark_cycle() {
        let geoms = GeometryTable::new(1);
        let c = nvalloc::size_to_class(64).unwrap();
        let geom = geom_for(SCHEME_LIST, c, &geoms);
        let mut s = BSlab::new_shell(0, c, 0, geom);
        let a = s.take().unwrap();
        let b = s.take().unwrap();
        assert_ne!(a, b);
        assert!(s.is_taken(a));
        s.unmark(a);
        s.free_stack.push(a as u32);
        // The freed block is reused before the bump frontier advances.
        assert_eq!(s.take(), Some(a));
    }

    #[test]
    fn pool_magic_distinguishes_kinds() {
        let ids: std::collections::HashSet<u64> =
            crate::policy::BaselineKind::ALL.iter().map(|k| pool_magic(*k)).collect();
        assert_eq!(ids.len(), crate::policy::BaselineKind::ALL.len());
    }

    /// The format is durable over stale media: a pool whose metadata area
    /// holds persisted 0xFF bytes, formatted, used and crashed, keeps no
    /// 0xFF word below the heap, and a root slot nothing wrote reads 0
    /// after recovery.
    #[test]
    fn format_over_stale_media_is_durable() {
        use nvalloc::api::PmAllocator;
        const SIZE: usize = 64 << 20;
        const ROOTS: usize = 1 << 16;
        for kind in [BaselineKind::Pmdk, BaselineKind::NvmMalloc] {
            let heap_base = BLayout::compute(SIZE, kind.policy().arenas, ROOTS).unwrap().heap_base;
            let mut words = vec![0u64; SIZE / 8];
            words[..heap_base as usize / 8].fill(u64::MAX);
            let mode = nvalloc_pmem::PmemConfig::default()
                .latency_mode(LatencyMode::Off)
                .crash_tracking(true);
            let pool = PmemPool::from_words(words, mode);
            let b = Baseline::create_with_roots(Arc::clone(&pool), kind, ROOTS).unwrap();
            let mut t = b.thread();
            for i in 0..200usize {
                let size = if i % 10 == 0 { 40 << 10 } else { 24 + i * 8 };
                t.malloc_to(size, b.root_offset(i)).unwrap();
            }
            for i in (0..200usize).step_by(3) {
                t.free_from(b.root_offset(i)).unwrap();
            }
            drop(t);
            let img = PmemPool::from_crash_image(pool.crash());
            let stale = (0..heap_base).step_by(8).filter(|&w| img.read_u64(w) == u64::MAX).count();
            assert_eq!(stale, 0, "{kind:?}: 0xFF words below the heap in the crash image");
            let (b, _) = Baseline::recover(Arc::clone(&img), kind).unwrap();
            assert_eq!(img.read_u64(b.root_offset(500)), 0, "{kind:?}: unwritten root slot");
        }
    }

    #[test]
    fn per_thread_heap_registry_grows() {
        let pool = PmemPool::new(
            nvalloc_pmem::PmemConfig::default().pool_size(64 << 20).latency_mode(LatencyMode::Off),
        );
        let b = Baseline::create(pool, crate::policy::BaselineKind::Pallocator).unwrap();
        use nvalloc::api::PmAllocator;
        let _t1 = b.thread();
        let _t2 = b.thread();
        assert_eq!(b.0.thread_heaps.lock().len(), 2);
    }
}
