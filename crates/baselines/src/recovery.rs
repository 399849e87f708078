//! Baseline recovery paths, modelling each system's documented strategy
//! (the Fig. 18 comparison):
//!
//! * **nvm_malloc** — scan the WAL and region table only; slab free-space
//!   reconstruction is deferred to runtime deallocation. Microseconds.
//! * **PMDK / PAllocator** — replay the redo WAL and rescan every slab's
//!   bitmap / state array. Milliseconds.
//! * **Makalu** — conservative GC: transitively scan every reachable
//!   block's full contents from the persistent roots. Slowest.
//! * **Ralloc** — GC, but with typed filter functions: only the first two
//!   words of each block are scanned for pointers, cutting the read volume
//!   ("Ralloc only needs to scan part of nodes in the recovery", §6.6).

use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize};
use std::sync::Arc;

use parking_lot::Mutex;

use nvalloc::internals::{
    GeometryTable, LargeAlloc, LargeConfig, Owner, PmBitmap, RTree, TimedMutex,
};
use nvalloc::{class_size, PmError, PmOffset, PmResult, SLAB_SIZE};
use nvalloc_pmem::PmemPool;

use crate::engine::{
    geom_for, new_heap, pool_magic, BArena, BInner, BLayout, BSlab, BWalRecovered, Baseline,
    HeapLock, SCHEME_BITMAP, SCHEME_LIST, SCHEME_STATE, SLAB_MAGIC,
};
use crate::policy::BaselineKind;

/// What a baseline recovery did (sizes for reporting; Fig. 18 measures the
/// wall/virtual time of the whole call).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BaselineRecovery {
    /// Slabs re-registered.
    pub slabs: usize,
    /// Non-slab extents re-registered.
    pub extents: usize,
    /// WAL entries scanned.
    pub wal_scanned: usize,
    /// Blocks marked live by GC (GC-based baselines).
    pub gc_marked: usize,
}

impl Baseline {
    /// Recover a baseline allocator from an existing pool image.
    ///
    /// # Errors
    /// [`PmError::Corrupt`] if the pool was not formatted for `kind`.
    pub fn recover(
        pool: Arc<PmemPool>,
        kind: BaselineKind,
    ) -> PmResult<(Baseline, BaselineRecovery)> {
        if pool.read_u64(0) != pool_magic(kind) {
            return Err(PmError::Corrupt("pool not formatted for this baseline"));
        }
        let policy = kind.policy();
        let roots = pool.read_u64(8) as usize;
        let layout = BLayout::compute(pool.size(), policy.arenas, roots)?;
        let mut report = BaselineRecovery::default();

        let rtree = Arc::new(RTree::new());
        let (large, extents) = LargeAlloc::recover(
            &pool,
            LargeConfig {
                heap_base: layout.heap_base,
                heap_bytes: layout.heap_bytes,
                log_bookkeeping: false,
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
        let geoms = GeometryTable::new(1);

        // Rebuild slabs per the baseline's strategy.
        let mut slabs: Vec<BSlab> = Vec::new();
        for e in &extents {
            if !e.is_slab {
                report.extents += 1;
                continue;
            }
            let w0 = pool.read_u64(e.off);
            if w0 as u32 != SLAB_MAGIC {
                continue; // header never persisted; space stays reachable as an extent
            }
            let class = (w0 >> 32) as u16 as usize;
            let scheme = (w0 >> 48) as u8;
            if class >= nvalloc::NUM_CLASSES
                || !matches!(scheme, SCHEME_BITMAP | SCHEME_STATE | SCHEME_LIST)
            {
                continue;
            }
            let geom = geom_for(scheme, class, &geoms);
            let mut slab = BSlab::new_shell(e.off, class, e.veh, geom);
            match kind {
                BaselineKind::NvmMalloc => {
                    // Deferred reconstruction: consider everything taken;
                    // runtime frees repopulate the free space.
                    slab.mark_all();
                }
                BaselineKind::Pmdk | BaselineKind::Pallocator => {
                    // Rescan the persistent per-block metadata.
                    if scheme == SCHEME_BITMAP {
                        let bm = PmBitmap::new(e.off + 64, geom.bitmap.expect("bitmap"));
                        for i in 0..geom.nblocks {
                            if bm.get(&pool, i) {
                                slab.mark_index(i);
                            }
                        }
                    } else {
                        for i in 0..geom.nblocks {
                            if pool.read_u16(e.off + 64 + (i * 2) as u64) != 0 {
                                slab.mark_index(i);
                            }
                        }
                    }
                    slab.seal_bump();
                }
                BaselineKind::Makalu | BaselineKind::Ralloc => {
                    // Placeholder; the GC pass below sets the marks.
                    slab.mark_all();
                }
            }
            slabs.push(slab);
        }
        report.slabs = slabs.len();

        // GC-based baselines: conservative mark phase.
        if matches!(kind, BaselineKind::Makalu | BaselineKind::Ralloc) {
            let scan_limit = if kind == BaselineKind::Ralloc { Some(16) } else { None };
            let marked = conservative_mark(&pool, &layout, &slabs, &large, scan_limit);
            report.gc_marked = marked.len();
            for slab in &mut slabs {
                slab.clear_all();
                for i in 0..slab.geom.nblocks {
                    if marked.contains(&slab.block_addr(i)) {
                        slab.mark_index(i);
                    }
                }
                slab.seal_bump();
                slab.rebuild_free_stack();
            }
        }

        // WAL scan (strong baselines): undo unfinished operations.
        if policy.strong {
            for a in 0..policy.arenas {
                // Skip the 64 B lane header at the region start.
                let base = layout.wal_base + (a * layout.wal_bytes_per_arena) as u64 + 64;
                let entries = layout.wal_bytes_per_arena / crate::engine::WAL_ENTRY_BYTES - 2;
                for s in 0..entries {
                    let off = base + (s * crate::engine::WAL_ENTRY_BYTES) as u64;
                    let w2 = pool.read_u64(off + 16);
                    let op = w2 & 0xff;
                    if op == 0 {
                        continue;
                    }
                    report.wal_scanned += 1;
                    let finished = pool.read_u64(off + 24) != 0;
                    if finished {
                        continue;
                    }
                    let addr = pool.read_u64(off);
                    let dest = pool.read_u64(off + 8);
                    let committed = dest != 0
                        && dest as usize + 8 <= pool.size()
                        && pool.read_u64(dest) == addr;
                    let rec = BWalRecovered { op: op as u8, addr, dest, committed };
                    apply_wal_fix(&pool, &mut slabs, rec);
                }
            }
        }

        // Assemble the allocator.
        let arenas: Vec<Arc<BArena>> = (0..policy.arenas)
            .map(|i| {
                Arc::new(BArena::new(layout.wal_base + (i * layout.wal_bytes_per_arena) as u64))
            })
            .collect();
        let thread_heaps = Mutex::new(Vec::new());
        // Per-thread-heap baselines park recovered slabs in heap 0.
        if policy.per_thread_heaps {
            thread_heaps.lock().push(new_heap());
        }

        let mut live_bytes = 0usize;
        {
            // Distribute slabs and register ownership.
            let heaps: Vec<HeapLock> = if policy.per_thread_heaps {
                thread_heaps.lock().clone()
            } else {
                arenas.iter().map(|a| Arc::clone(&a.heap)).collect()
            };
            for (i, slab) in slabs.into_iter().enumerate() {
                let hidx = i % heaps.len();
                rtree.insert_range(
                    slab.off,
                    SLAB_SIZE,
                    Owner::Slab { slab: slab.off, arena: hidx as u32 }.pack(),
                );
                live_bytes += (slab.geom.nblocks - slab.nfree) * class_size(slab.class);
                let mut h = heaps[hidx].lock();
                if slab.nfree > 0 {
                    h.freelist[slab.class].push_back(slab.off);
                }
                h.slabs.insert(slab.off, slab);
            }
        }
        for e in &extents {
            if !e.is_slab && large.veh(e.veh).is_some() {
                live_bytes += e.size;
            }
        }

        let b = Baseline(Arc::new(BInner {
            pool,
            kind,
            policy,
            layout,
            geoms,
            rtree,
            large: TimedMutex::new(large, true),
            arenas,
            thread_heaps,
            live_bytes: AtomicUsize::new(live_bytes),
            seq: AtomicU64::new(1),
        }));
        Ok((b, report))
    }
}

fn apply_wal_fix(pool: &PmemPool, slabs: &mut [BSlab], rec: BWalRecovered) {
    let slab_off = rec.addr & !(SLAB_SIZE as u64 - 1);
    let Some(slab) = slabs.iter_mut().find(|s| s.off == slab_off) else { return };
    let Some(idx) = slab.block_index(rec.addr) else { return };
    let should_live = rec.op == 1 && rec.committed;
    if should_live && !slab.is_taken(idx) {
        slab.mark_index(idx);
    } else if !should_live && slab.is_taken(idx) {
        slab.unmark(idx);
    }
    if rec.op == 2 && rec.committed {
        // Unfinished free: complete the destination clear.
        let mut t = pool.register_thread();
        pool.persist_u64(&mut t, rec.dest, 0, nvalloc_pmem::FlushKind::Meta);
    }
}

/// Conservative mark from the root slots. `scan_limit` bounds how many
/// bytes of each block are scanned for pointers (Ralloc's filter model).
fn conservative_mark(
    pool: &PmemPool,
    layout: &BLayout,
    slabs: &[BSlab],
    large: &LargeAlloc,
    scan_limit: Option<usize>,
) -> HashSet<PmOffset> {
    let by_off: std::collections::HashMap<PmOffset, &BSlab> =
        slabs.iter().map(|s| (s.off, s)).collect();
    let mut marked = HashSet::new();
    let mut queue: VecDeque<(PmOffset, usize)> = VecDeque::new();

    let push =
        |p: PmOffset, marked: &mut HashSet<PmOffset>, queue: &mut VecDeque<(PmOffset, usize)>| {
            if p == 0 || p as usize >= pool.size() {
                return;
            }
            let slab_off = p & !(SLAB_SIZE as u64 - 1);
            if let Some(slab) = by_off.get(&slab_off) {
                if slab.block_index(p).is_some() && marked.insert(p) {
                    queue.push_back((p, class_size(slab.class)));
                }
                return;
            }
            if let Some(Owner::Extent { veh }) = large.rtree().lookup(p).map(Owner::unpack) {
                if let Some(v) = large.veh(veh) {
                    if v.off == p && marked.insert(p) {
                        queue.push_back((p, v.size));
                    }
                }
            }
        };

    for i in 0..layout.roots_count {
        let p = pool.read_u64(layout.roots + (i * 8) as u64);
        push(p, &mut marked, &mut queue);
    }
    while let Some((start, len)) = queue.pop_front() {
        let len = scan_limit.map_or(len, |l| l.min(len));
        let mut off = start;
        while off + 8 <= start + len as u64 {
            let p = pool.read_u64(off);
            push(p, &mut marked, &mut queue);
            off += 8;
        }
    }
    marked
}
