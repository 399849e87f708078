//! Recovery (§4.4): rebuild the allocator from a pool image after a normal
//! shutdown or a crash.
//!
//! Normal-shutdown path: re-create the arenas, recover the bookkeeping log
//! (or region-table headers), reconstruct a vslab for every slab entry —
//! including `cnt_slab`/`cnt_block` for slabs that were mid-morph — and
//! rebuild VEHs plus the reclaimed list from the gaps between live extents.
//!
//! Failure path additions:
//! * interrupted **morphs** are rolled back (flag 1–2) or forward (flag 3)
//!   using the header flag and index table;
//! * **NVAlloc-LOG** replays the newest WAL entry per thread micro-log in
//!   global sequence order, completing or undoing half-finished operations;
//! * **NVAlloc-GC** runs a conservative garbage collection from the root
//!   slots, rebuilding every slab bitmap from the reachable set and
//!   reclaiming leaked blocks and extents (as Makalu does).

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

use nvalloc_pmem::{FlushKind, PmError, PmOffset, PmResult, PmThread, PmemPool};

use crate::arena::arena_state;
use crate::bitmap::PmBitmap;
use crate::config::{NvConfig, Variant};
use crate::front::{Heap, Instruments, Layout, NvAllocator, NvInner, RecoveryReport};
use crate::geometry::{GeometryTable, SLAB_FIXED_HEADER};
use crate::large::{RecoveredExtent, VehId};
use crate::rtree::{Owner, RTree};
use crate::shards::ShardedLarge;
use crate::size_class::{class_size, SLAB_SIZE};
use crate::slab::{
    flag, header_word1, persist_flag, read_index_entry, IndexEntry, SlabHeader, VSlab, NO_OLD_CLASS,
};
use crate::telemetry::OpKind;
use crate::trace::EventKind;
use crate::wal::{newest_per_block, WalEntry, WalOp};

pub(crate) fn recover(
    pool: Arc<PmemPool>,
    cfg: NvConfig,
) -> PmResult<(NvAllocator, RecoveryReport)> {
    let cfg = NvAllocator::effective(cfg, &pool);
    // Every image reader (header, WAL, extent inventory) runs before the
    // first write, the arena flip to RECOVERY, so a refused image stays
    // byte-identical. Slab headers are read later: a bad one is reclaimed
    // as a leak, not refused.
    let layout = Layout::read(&pool, &cfg)?;
    let geoms = GeometryTable::new(cfg.stripes_for(cfg.interleave_bitmap));
    let mut t = pool.register_thread();
    // The instrumentation exists before any repair work so the recovery
    // thread's phase transitions land in the flight record and its
    // counts in a probe of its own.
    let inst = Instruments::new(&cfg, &layout, pool.size());
    if let Some(rec) = &inst.tracer {
        t.set_tracer(rec.register());
    }
    let probe = inst.probes.probe();
    let mut report = RecoveryReport::default();
    t.trace(EventKind::RecoveryPhase.code(), 0, cfg.arenas as u64);

    // Arena flags decide the recovery mode (§4.4).
    let arenas = layout.arenas(&cfg);
    report.normal_shutdown = arenas.iter().all(|a| a.state(&pool) == arena_state::NORMAL_SHUTDOWN);
    // One scan of the WALs: its newest entries give the sequence number
    // new entries continue from (repairs append none), and on a crashed
    // LOG image they are what replay repairs, validated before any
    // repair writes to the image.
    let mut wal_entries: Vec<WalEntry> =
        arenas.iter().flat_map(|a| a.wal.replay_entries(&pool)).collect();
    let max_seq = wal_entries.iter().map(|e| e.seq).max().unwrap_or(0);
    if report.normal_shutdown || cfg.variant != Variant::Log {
        wal_entries.clear();
    }
    if wal_entries.iter().any(|e| !e.is_valid(layout.heap_base, pool.size())) {
        return Err(PmError::Corrupt("wal_bounds"));
    }

    // Rebuild the large allocator (booklog scan or region-table scan).
    // Shards recover in ascending index order, so the merged extent list
    // is deterministic for a given pool image.
    let rtree = Arc::new(RTree::new());
    let mut large_cfg = layout.large_config(&cfg);
    large_cfg.slow_gc_threshold = ((pool.size() as f64 * cfg.usage_pmem) as usize).max(4096);
    let (large, extents) =
        ShardedLarge::recover(&pool, large_cfg, layout.large_shards, &rtree, cfg.telemetry)?;
    for a in &arenas {
        a.set_state(&pool, &mut t, arena_state::RECOVERY);
    }

    // Reconstruct slabs (and resolve interrupted morphs).
    let mut vslabs: Vec<VSlab> = Vec::new();
    let mut bad_slab_extents: Vec<VehId> = Vec::new();
    for e in &extents {
        if e.is_slab {
            match recover_slab(&pool, &mut t, &geoms, e, &mut report) {
                Some(vs) => vslabs.push(vs),
                None => bad_slab_extents.push(e.veh),
            }
        } else {
            report.extents += 1;
        }
    }
    // Slab extents whose header never persisted are leaks: free them.
    for veh in bad_slab_extents {
        let _ = large.free(&pool, &mut t, veh);
        report.leaks_fixed += 1;
    }
    report.slabs = vslabs.len();
    t.trace(EventKind::RecoveryPhase.code(), 1, report.slabs as u64);

    // Register slab ownership in the rtree (round-robin arena assignment;
    // the original assignment is not persisted and does not affect
    // correctness).
    for (i, vs) in vslabs.iter().enumerate() {
        let arena = (i % cfg.arenas) as u32;
        rtree.insert_range(vs.off, SLAB_SIZE, Owner::Slab { slab: vs.off, arena }.pack());
    }

    // Failure-only repairs.
    if !report.normal_shutdown {
        match cfg.variant {
            Variant::Log => {
                replay_wals(
                    &pool,
                    &mut t,
                    wal_entries,
                    &geoms,
                    &large,
                    &rtree,
                    &mut vslabs,
                    &mut report,
                );
                t.trace(EventKind::RecoveryPhase.code(), 2, report.wal_replayed as u64);
            }
            Variant::Gc => {
                conservative_gc(
                    &pool,
                    &mut t,
                    &layout,
                    &geoms,
                    &large,
                    &rtree,
                    &mut vslabs,
                    &mut report,
                )?;
                t.trace(EventKind::RecoveryPhase.code(), 3, report.gc_live_blocks as u64);
            }
            Variant::Internal => {
                // Internal collection: the persisted bitmaps and booklog
                // are authoritative and every object is enumerable, so
                // nothing can leak and nothing needs replaying (§7).
            }
        }
    }

    // Volatile state: resync every vslab against the (possibly repaired)
    // persistent bitmaps and hand slabs to their arenas.
    let mut live_bytes = 0usize;
    for (i, mut vs) in vslabs.into_iter().enumerate() {
        vs.resync_from_persistent(&pool, &geoms);
        live_bytes += (vs.nblocks - vs.nfree) * class_size(vs.class);
        if let Some(m) = &vs.morph {
            live_bytes += m.cnt_slab * class_size(m.old_class);
            // Blocks withheld by cnt_block are not live allocations.
            let withheld: usize = m.cnt_block.iter().take(vs.nblocks).filter(|&&c| c > 0).count();
            live_bytes -= withheld.min(vs.nblocks - vs.nfree) * class_size(vs.class);
        }
        let arena = &arenas[i % cfg.arenas];
        arena.inner.lock().add_slab(vs);
    }
    for e in &extents {
        // Only extents still *active* after the repairs count as live
        // (WAL replay / GC may have freed orphans to the reclaimed list).
        let active = large
            .veh(e.veh)
            .is_some_and(|v| v.state == crate::large::ExtentState::Active && v.off == e.off);
        if !e.is_slab && active {
            live_bytes += e.size;
        }
    }

    for a in &arenas {
        a.set_state(&pool, &mut t, arena_state::RUNNING);
    }

    // Telemetry: the whole recovery ran on `t`'s virtual clock (the WAL
    // replay and conservative-GC passes share it), so its reading is the
    // modelled recovery latency.
    probe.event(&t, EventKind::WalReplay, report.wal_replayed as u64, 0);
    probe.event(&t, EventKind::MorphUndone, report.morphs_resolved as u64, 0);
    probe.record(OpKind::Recovery, t.virtual_ns());
    drop(probe);
    t.trace(EventKind::RecoveryPhase.code(), 4, report.leaks_fixed as u64);

    let heap = Heap { geoms, arenas, large, rtree, live_bytes, wal_seq: max_seq.saturating_add(1) };
    let alloc = NvInner::assemble(pool, cfg, layout, heap, inst);
    // Provenance-sidelog replay runs after the heap is authoritative:
    // replayed records whose object did not survive (the crash landed
    // between an append and its commit point, or a repair freed the
    // object) are pruned against the live-object view, then each arena
    // log is re-compacted so the persistent sidelog again holds exactly
    // the surviving attributions.
    if let Some(p) = &alloc.0.prof {
        let mut pt = alloc.0.pool.register_thread();
        let stats = p.rebuild(&alloc.0.pool, &mut pt, |a| alloc.usable_size(a));
        report.prof_records = stats.records;
        report.prof_stale = stats.stale;
    }
    Ok((alloc, report))
}

/// Rebuild one slab's vslab from its persistent header, rolling
/// interrupted morphs back or forward first. Returns `None` for slabs
/// whose header never persisted or fails [`SlabHeader::validate`].
fn recover_slab(
    pool: &PmemPool,
    t: &mut PmThread,
    geoms: &GeometryTable,
    e: &RecoveredExtent,
    report: &mut RecoveryReport,
) -> Option<VSlab> {
    let mut h = SlabHeader::read(pool, e.off)?;
    if (h.class as usize) >= crate::size_class::NUM_CLASSES {
        return None;
    }

    // Resolve interrupted morphs via the step flag (§5.2), and a step 1
    // torn before its flag persisted.
    if h.flag != flag::NONE || h.torn_morph_step1() {
        report.morphs_resolved += 1;
        match h.flag {
            flag::NONE | flag::OLD_SAVED => {
                // Undo step 1: clear the old-layout fields. They share a
                // line with the flag word, so they are fenced before the
                // flag store lands on it.
                pool.write_u64(e.off + 8, header_word1(h.data_offset, NO_OLD_CLASS, 0));
                pool.write_u64(e.off + 16, 0);
                pool.flush(t, e.off + 8, 16, FlushKind::Meta);
                pool.fence(t);
                persist_flag(pool, t, e.off, h.class, flag::NONE);
            }
            flag::INDEX_WRITTEN => {
                // Undo steps 1–2. The bitmap may be partially overwritten
                // by an interrupted step 3: rebuild it from the index
                // table, which is authoritative at this point. The table
                // sits at the new class's bitmap end, which may reach past
                // the old data offset, so only the slab bounds it.
                if !h.morph_index_valid(SLAB_FIXED_HEADER, SLAB_SIZE) {
                    return None;
                }
                let g = geoms.of(h.class as usize);
                let bm = PmBitmap::new(e.off + g.bitmap_off as u64, g.bitmap);
                bm.clear_all(pool);
                for i in 0..h.index_len as usize {
                    let entry = read_index_entry(pool, e.off, h.index_table_off, i);
                    if entry.allocated && (entry.old_idx as usize) < g.bitmap.nbits() {
                        bm.write_volatile(pool, entry.old_idx as usize, true);
                    }
                }
                pool.flush(t, e.off + g.bitmap_off as u64, g.bitmap.bytes(), FlushKind::Meta);
                pool.write_u64(e.off + 8, header_word1(h.old_data_offset, NO_OLD_CLASS, 0));
                pool.write_u64(e.off + 16, 0);
                pool.flush(t, e.off + 8, 16, FlushKind::Meta);
                pool.fence(t);
                persist_flag(pool, t, e.off, h.class, flag::NONE);
            }
            flag::NEW_WRITTEN => {
                // Step 3 completed: roll forward.
                persist_flag(pool, t, e.off, h.class, flag::NONE);
            }
            _ => return None,
        }
        h = SlabHeader::read(pool, e.off)?;
    }

    h.validate(pool, e.off, e.veh, geoms).ok()
}

/// NVAlloc-LOG failure recovery: replay the newest WAL entry of every
/// micro-log (`entries`, already validated) in global sequence order
/// (§4.4).
#[allow(clippy::too_many_arguments)]
fn replay_wals(
    pool: &PmemPool,
    t: &mut PmThread,
    entries: Vec<WalEntry>,
    geoms: &GeometryTable,
    large: &ShardedLarge,
    rtree: &RTree,
    vslabs: &mut [VSlab],
    report: &mut RecoveryReport,
) {
    let latest = newest_per_block(entries);
    let mut by_slab: HashMap<PmOffset, &mut VSlab> =
        vslabs.iter_mut().map(|v| (v.off, v)).collect();

    for e in latest.values() {
        report.wal_replayed += 1;
        let committed_alloc = pool.read_u64(e.dest) == e.addr;
        let slab_off = e.addr & !(SLAB_SIZE as u64 - 1);
        if let Some(vs) = by_slab.get_mut(&slab_off) {
            let should_be_live = matches!(e.op, WalOp::Alloc) && committed_alloc;
            // Old-class (morph) block?
            if let Some(m) = vs.morph.as_mut() {
                if let Some(pos) = m.entry_of(slab_off, e.addr) {
                    if m.index[pos].allocated != should_be_live {
                        let entry = IndexEntry { allocated: should_be_live, ..m.index[pos] };
                        let table = m.index_off as u32;
                        crate::slab::persist_index_entry(pool, t, slab_off, table, pos, entry);
                        m.index[pos] = entry;
                        report.leaks_fixed += 1;
                        m.recount(vs.data_offset, class_size(vs.class), vs.nblocks);
                    }
                    continue;
                }
            }
            let g = geoms.of(vs.class);
            let Some(idx) = vs.block_index(e.addr) else { continue };
            let bm = PmBitmap::new(slab_off + g.bitmap_off as u64, g.bitmap);
            if bm.get(pool, idx) != should_be_live {
                if should_be_live {
                    bm.set_persist(pool, t, idx);
                } else {
                    bm.clear_persist(pool, t, idx);
                }
                report.leaks_fixed += 1;
            }
            if matches!(e.op, WalOp::Free) && committed_alloc {
                // The free never finished clearing the destination.
                pool.persist_u64(t, e.dest, 0, FlushKind::Meta);
            }
        } else if let Some(Owner::Extent { veh }) = large_owner_of(large, rtree, e.addr) {
            let should_be_live = matches!(e.op, WalOp::Alloc) && committed_alloc;
            if !should_be_live {
                if matches!(e.op, WalOp::Free) && committed_alloc {
                    pool.persist_u64(t, e.dest, 0, FlushKind::Meta);
                }
                if large.free(pool, t, veh).is_ok() {
                    report.leaks_fixed += 1;
                }
            }
        } else if matches!(e.op, WalOp::Alloc) && !committed_alloc {
            // Nothing persisted for this allocation: nothing to undo.
        }
    }
}

fn large_owner_of(large: &ShardedLarge, rtree: &RTree, addr: PmOffset) -> Option<Owner> {
    rtree.lookup(addr).map(Owner::unpack).filter(|o| match o {
        Owner::Extent { veh } => large.veh(*veh).is_some_and(|v| v.off == addr),
        _ => false,
    })
}

/// NVAlloc-GC failure recovery: conservative mark from the root slots,
/// then rebuild every slab bitmap and free unreachable extents (§4.4,
/// following Makalu).
#[allow(clippy::too_many_arguments)]
fn conservative_gc(
    pool: &PmemPool,
    t: &mut PmThread,
    layout: &Layout,
    geoms: &GeometryTable,
    large: &ShardedLarge,
    rtree: &RTree,
    vslabs: &mut [VSlab],
    report: &mut RecoveryReport,
) -> PmResult<()> {
    let by_slab: HashMap<PmOffset, usize> =
        vslabs.iter().enumerate().map(|(i, v)| (v.off, i)).collect();

    // Mark phase: BFS over pointer-looking words.
    let mut marked: HashSet<PmOffset> = HashSet::new();
    let mut queue: VecDeque<(PmOffset, usize)> = VecDeque::new(); // (block start, len)

    let push_candidate =
        |p: PmOffset, marked: &mut HashSet<PmOffset>, queue: &mut VecDeque<(PmOffset, usize)>| {
            if p == 0 || p as usize >= pool.size() {
                return false;
            }
            let slab_off = p & !(SLAB_SIZE as u64 - 1);
            if let Some(&vi) = by_slab.get(&slab_off) {
                let vs = &vslabs[vi];
                // New-class block start?
                if let Some(_idx) = vs.block_index(p) {
                    if marked.insert(p) {
                        queue.push_back((p, vs.block_size()));
                        return true;
                    }
                    return false;
                }
                // Old-class block start?
                if let Some(m) = vs.morph.as_ref().filter(|m| m.entry_of(slab_off, p).is_some()) {
                    if marked.insert(p) {
                        queue.push_back((p, class_size(m.old_class)));
                        return true;
                    }
                }
                return false;
            }
            if let Some(Owner::Extent { veh }) = large_owner_of(large, rtree, p) {
                let size = large.veh(veh).expect("validated").size;
                if marked.insert(p) {
                    queue.push_back((p, size));
                    return true;
                }
            }
            false
        };

    // Roots.
    for i in 0..layout.roots_count {
        let p = pool.read_u64(layout.roots + (i * 8) as u64);
        push_candidate(p, &mut marked, &mut queue);
    }
    // Transitive closure.
    while let Some((start, len)) = queue.pop_front() {
        let mut off = start;
        let end = start + len as u64;
        while off + 8 <= end {
            let p = pool.read_u64(off);
            push_candidate(p, &mut marked, &mut queue);
            off += 8;
        }
    }
    report.gc_live_blocks = marked.len();

    // Rebuild slab bitmaps from the mark set.
    for vs in vslabs.iter_mut() {
        let g = geoms.of(vs.class);
        let bm = PmBitmap::new(vs.off + g.bitmap_off as u64, g.bitmap);
        let before = bm.count_set(pool);
        bm.clear_all(pool);
        let mut after = 0;
        for idx in 0..vs.nblocks {
            let addr = vs.block_addr(idx);
            if marked.contains(&addr) {
                bm.write_volatile(pool, idx, true);
                after += 1;
            }
        }
        report.leaks_fixed += before.saturating_sub(after);
        // Morph index entries: unreachable old blocks die.
        let (doff, bs, nblocks, off) = (vs.data_offset, vs.block_size(), vs.nblocks, vs.off);
        if let Some(m) = vs.morph.as_mut() {
            for pos in 0..m.index.len() {
                let e = m.index[pos];
                if !e.allocated {
                    continue;
                }
                let addr =
                    off + (m.old_data_offset + e.old_idx as usize * class_size(m.old_class)) as u64;
                if !marked.contains(&addr) {
                    m.index[pos].allocated = false;
                    crate::slab::persist_index_entry(
                        pool,
                        t,
                        off,
                        m.index_off as u32,
                        pos,
                        IndexEntry { allocated: false, ..e },
                    );
                    report.leaks_fixed += 1;
                }
            }
            m.recount(doff, bs, nblocks);
        }
        pool.flush(t, vs.off, vs.data_offset, FlushKind::Meta);
    }
    // Conditional: with no slabs to sweep, nothing was flushed and an
    // unconditional fence here would order nothing (pmsan: empty_fence).
    pool.fence_pending(t);

    // Free unreachable non-slab extents.
    let unreachable: Vec<VehId> = large
        .active_extents()
        .into_iter()
        .filter(|&(_, off, is_slab)| !is_slab && !marked.contains(&off))
        .map(|(veh, _, _)| veh)
        .collect();
    for veh in unreachable {
        if large.free(pool, t, veh).is_ok() {
            report.leaks_fixed += 1;
        }
    }
    // Clear any root slots that pointed at garbage.
    for i in 0..layout.roots_count {
        let slot = layout.roots + (i * 8) as u64;
        let p = pool.read_u64(slot);
        if p != 0 && !marked.contains(&p) {
            pool.persist_u64(t, slot, 0, FlushKind::Meta);
        }
    }
    Ok(())
}
