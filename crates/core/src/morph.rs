//! Slab morphing (§5.2): transforming a mostly-empty slab to another size
//! class while its remaining old-class blocks stay live.
//!
//! A morph candidate is chosen by scanning the arena's LRU list from the
//! least-recently-used end for a slab whose occupancy is below the
//! space-utilisation threshold `SU`, whose blocks are all accounted for in
//! the persistent bitmap (none parked in thread caches), and whose live
//! blocks don't overlap the *new* header area.
//!
//! The metadata transform is staged behind the header `flag` field so a
//! crash at any point can be rolled back (flag 1–2) or forward (flag 3):
//!
//! 1. save `old_size_class` / `old_data_offset` / `index_table_off`  → flag 1
//! 2. write the index table (one 2 B entry per live old block)       → flag 2
//! 3. write the new `size_class` / `data_offset`, zero the new bitmap → flag 3,
//!    then reset flag to 0 (morph complete; the slab is a `slab_in`).
//!
//! While `cnt_slab > 0` the slab indexes two block layouts at once; new
//! blocks overlapped by live old blocks are withheld via `cnt_block`.
//! Releasing the last old block turns the slab into a regular `slab_after`.

use nvalloc_pmem::{FlushKind, PmError, PmOffset, PmResult, PmThread, PmemPool};

use crate::arena::ArenaInner;
use crate::bitmap::set_bits;
use crate::geometry::GeometryTable;
use crate::remote::SlabGates;
use crate::size_class::{class_size, ClassId};
use crate::slab::{
    flag, header_word1, persist_flag, persist_index_entry, IndexEntry, MorphState, NO_OLD_CLASS,
};
use crate::telemetry::Probe;
use crate::trace::EventKind;

/// Geometry of a morph target, computed before committing to the transform.
#[derive(Debug, Clone)]
struct MorphPlan {
    slab: PmOffset,
    old_class: ClassId,
    old_data_offset: usize,
    live: Vec<u16>,
    index_off: usize,
    new_data_offset: usize,
    new_nblocks: usize,
}

/// Plan the new in-slab layout for morphing to `new_class` with
/// `live_count` index entries. Returns `(index_off, new_data_offset,
/// new_nblocks)`.
fn plan_layout(
    geoms: &GeometryTable,
    new_class: ClassId,
    live_count: usize,
) -> (usize, usize, usize) {
    let g = geoms.of(new_class);
    let index_off = g.bitmap_off + g.bitmap.bytes();
    let new_data_offset = (index_off + 2 * live_count).next_multiple_of(64);
    let new_nblocks = g.nblocks_at(new_data_offset);
    (index_off, new_data_offset, new_nblocks)
}

/// Try to morph one of the arena's slabs into `new_class`. On success the
/// morphed slab is already linked into `freelist[new_class]` and its offset
/// is returned.
///
/// When `gates` is provided, the candidate's slab gate is held exclusively
/// from before the bitmap scan until the transform completes, so a
/// lock-free free cannot mutate the bitmap between planning and applying
/// (which would record a freed block as live in the index table). Slabs
/// with in-flight pinned frees are simply skipped.
///
/// Returns `None` when no eligible candidate exists.
#[allow(clippy::too_many_arguments)]
pub fn try_morph(
    pool: &PmemPool,
    t: &mut PmThread,
    inner: &mut ArenaInner,
    geoms: &GeometryTable,
    su_threshold: f64,
    new_class: ClassId,
    gates: Option<&SlabGates>,
    probe: &Probe,
) -> Option<PmOffset> {
    let (examined, plan) = find_candidate(pool, inner, geoms, su_threshold, new_class, gates);
    probe.event(t, EventKind::MorphScan, examined, 0);
    let plan = plan?;
    let slab = plan.slab;
    probe.event(t, EventKind::MorphStart, 0, 0);
    let done = apply(pool, t, inner, geoms, new_class, plan);
    if let Some(g) = gates {
        g.unlock(slab);
    }
    if done.is_some() {
        probe.event(t, EventKind::MorphDone, 0, 0);
    }
    done
}

/// Scan the LRU list for a morphable slab. Returns the number of slabs
/// examined alongside the plan (telemetry).
fn find_candidate(
    pool: &PmemPool,
    inner: &ArenaInner,
    geoms: &GeometryTable,
    su_threshold: f64,
    new_class: ClassId,
    gates: Option<&SlabGates>,
) -> (u64, Option<MorphPlan>) {
    let mut examined = 0u64;
    // LRU scan, least recently used first (§5.2).
    for (_, &off) in inner.lru.iter() {
        examined += 1;
        let vs = &inner.slabs[&off];
        if vs.class == new_class || vs.morph.is_some() {
            continue;
        }
        if vs.occupancy() >= su_threshold {
            continue;
        }
        // Take the slab's gate before reading the bitmap: a lock-free
        // free landing between this scan and the transform would be
        // recorded as live in the index table. A pinned gate (in-flight
        // fast free) makes the slab ineligible this round.
        if let Some(g) = gates {
            if !g.try_lock(off) {
                continue;
            }
        }
        match evaluate(pool, vs, geoms, new_class, off) {
            Some(plan) => return (examined, Some(plan)),
            None => {
                if let Some(g) = gates {
                    g.unlock(off);
                }
            }
        }
    }
    (examined, None)
}

/// Evaluate one gate-held candidate: bitmap scan plus layout checks.
fn evaluate(
    pool: &PmemPool,
    vs: &crate::slab::VSlab,
    geoms: &GeometryTable,
    new_class: ClassId,
    off: PmOffset,
) -> Option<MorphPlan> {
    // All unavailable blocks must be persistent allocations; blocks
    // parked in thread caches or remote-free queues make the slab
    // ineligible (their space may be handed out or returned at any
    // moment without taking the arena lock).
    let dense = vs.pbitmap(geoms).read_dense(pool);
    let live: Vec<u16> =
        set_bits(&dense).take_while(|&i| i < vs.nblocks).map(|i| i as u16).collect();
    if live.len() != vs.nblocks - vs.nfree {
        return None; // tcache-cached blocks present
    }
    let (index_off, new_data_offset, new_nblocks) = plan_layout(geoms, new_class, live.len());
    if new_nblocks == 0 {
        return None;
    }
    // The new header must not overlap live old-block data (§5.2: "a
    // slab will not be selected if the new header space is overlapped
    // with block spaces having live data").
    let old_bs = class_size(vs.class);
    let overlaps = live.iter().any(|&i| {
        let start = vs.data_offset + i as usize * old_bs;
        start < new_data_offset
    });
    if overlaps {
        return None;
    }
    Some(MorphPlan {
        slab: off,
        old_class: vs.class,
        old_data_offset: vs.data_offset,
        live,
        index_off,
        new_data_offset,
        new_nblocks,
    })
}

/// Execute the three-step transform and rebuild the volatile state.
fn apply(
    pool: &PmemPool,
    t: &mut PmThread,
    inner: &mut ArenaInner,
    geoms: &GeometryTable,
    new_class: ClassId,
    plan: MorphPlan,
) -> Option<PmOffset> {
    let off = plan.slab;
    let old_class = plan.old_class as u16;
    let index_len = plan.live.len() as u16;

    // Step 1: save old layout fields.
    pool.write_u64(off + 8, header_word1(plan.old_data_offset as u32, old_class, index_len));
    pool.write_u64(off + 16, plan.old_data_offset as u64 | (plan.index_off as u64) << 32);
    pool.charge_store(t, off + 8, 16);
    if !faults::skip_step1_flush() {
        pool.flush(t, off + 8, 16, FlushKind::Meta);
    }
    if !faults::skip_step1_fence() {
        pool.fence(t);
    }
    persist_flag(pool, t, off, old_class, flag::OLD_SAVED);

    // Step 2: write the index table.
    for (pos, &old_idx) in plan.live.iter().enumerate() {
        let e = IndexEntry { old_idx, allocated: true };
        pool.write_u16(off + plan.index_off as u64 + (pos * 2) as u64, e.pack());
    }
    let table_bytes = 2 * plan.live.len();
    if table_bytes > 0 {
        pool.charge_store(t, off + plan.index_off as u64, table_bytes);
        pool.flush(t, off + plan.index_off as u64, table_bytes, FlushKind::Meta);
        pool.fence(t);
    }
    persist_flag(pool, t, off, old_class, flag::INDEX_WRITTEN);

    // Step 3: install the new layout. The old bitmap region is overwritten
    // here; the index table written in step 2 is now the authoritative
    // record of the live old blocks.
    let g = geoms.of(new_class);
    let new_bm = crate::bitmap::PmBitmap::new(off + g.bitmap_off as u64, g.bitmap);
    new_bm.clear_all(pool);
    pool.write_u64(off + 8, header_word1(plan.new_data_offset as u32, old_class, index_len));
    pool.charge_store(t, off + 8, 8 + g.bitmap.bytes());
    pool.flush(t, off + g.bitmap_off as u64, g.bitmap.bytes(), FlushKind::Meta);
    pool.flush(t, off + 8, 8, FlushKind::Meta);
    pool.fence(t);
    persist_flag(pool, t, off, new_class as u16, flag::NEW_WRITTEN);
    // Transformation complete.
    persist_flag(pool, t, off, new_class as u16, flag::NONE);

    // Volatile rebuild.
    let mut m = MorphState {
        old_class: plan.old_class,
        old_data_offset: plan.old_data_offset,
        index_off: plan.index_off,
        index: plan.live.iter().map(|&i| IndexEntry { old_idx: i, allocated: true }).collect(),
        cnt_slab: 0,
        cnt_block: Vec::new(),
    };
    m.recount(plan.new_data_offset, class_size(new_class), plan.new_nblocks);
    inner.freelist_remove(plan.old_class, off);
    inner.lru_remove(off);

    let vs = inner.slabs.get_mut(&off).expect("slab exists");
    vs.class = new_class;
    vs.data_offset = plan.new_data_offset;
    vs.nblocks = plan.new_nblocks;
    vs.morph = Some(m);
    // Rebuild availability: new bitmap is empty; block positions with
    // cnt_block > 0 are withheld.
    vs.resync_from_persistent(pool, geoms);

    if vs.nfree > 0 {
        inner.freelist_push(new_class, off);
    }
    Some(off)
}

/// Test-only fault injection: mutation tests for the pmsan sanitizer
/// delete exactly one flush or one fence from the step-1 sequence and
/// assert pmsan flags that site. Compiled out of release builds; the
/// accessors below collapse to `false` constants outside `cfg(test)`.
#[cfg(test)]
pub(crate) mod faults {
    use std::cell::Cell;

    thread_local! {
        pub static SKIP_STEP1_FLUSH: Cell<bool> = const { Cell::new(false) };
        pub static SKIP_STEP1_FENCE: Cell<bool> = const { Cell::new(false) };
    }

    pub(crate) fn skip_step1_flush() -> bool {
        SKIP_STEP1_FLUSH.with(|f| f.get())
    }

    pub(crate) fn skip_step1_fence() -> bool {
        SKIP_STEP1_FENCE.with(|f| f.get())
    }
}

#[cfg(not(test))]
mod faults {
    pub(crate) fn skip_step1_flush() -> bool {
        false
    }

    pub(crate) fn skip_step1_fence() -> bool {
        false
    }
}

/// If `addr` is a live old-class block of a morphed slab, return its index
/// position in the index table.
pub fn find_old_block(
    inner: &ArenaInner,
    slab_off: PmOffset,
    addr: PmOffset,
) -> Option<(usize, u16)> {
    let m = inner.slabs.get(&slab_off)?.morph.as_ref()?;
    let pos = m.entry_of(slab_off, addr).filter(|&pos| m.index[pos].allocated)?;
    Some((pos, m.index[pos].old_idx))
}

/// Release a live old-class block (blocks released this way bypass the
/// tcache; §5.2). Returns `true` if the slab just finished morphing
/// (`cnt_slab` hit zero) and has been restored to a regular slab.
///
/// # Errors
/// [`PmError::NotAllocated`] if `addr` is not a live old block.
pub fn release_old_block(
    pool: &PmemPool,
    t: &mut PmThread,
    inner: &mut ArenaInner,
    slab_off: PmOffset,
    addr: PmOffset,
) -> PmResult<bool> {
    let (pos, _) = find_old_block(inner, slab_off, addr).ok_or(PmError::NotAllocated)?;
    let vs = inner.slabs.get_mut(&slab_off).expect("morphed slab exists");
    let was_exhausted = vs.nfree == 0;
    let m = vs.morph.as_mut().expect("morph state present");
    let (index_off, old_class, old_doff) = (m.index_off, m.old_class, m.old_data_offset);
    let e = IndexEntry { old_idx: m.index[pos].old_idx, allocated: false };
    // Persist the state change in the index table.
    persist_index_entry(pool, t, slab_off, index_off as u32, pos, e);
    m.index[pos].allocated = false;
    m.cnt_slab -= 1;
    let finished = m.cnt_slab == 0;

    // Unblock new-class positions that no longer overlap a live old block.
    let old_bs = class_size(old_class);
    let start = old_doff + e.old_idx as usize * old_bs;
    let end = start + old_bs;
    let new_doff = vs.data_offset;
    let new_bs = vs.block_size();
    let nblocks = vs.nblocks;
    let mut newly_free = Vec::new();
    {
        let m = vs.morph.as_mut().expect("morph state present");
        if end > new_doff && !m.cnt_block.is_empty() {
            let first = start.saturating_sub(new_doff) / new_bs;
            let last = ((end - 1).saturating_sub(new_doff) / new_bs).min(m.cnt_block.len() - 1);
            for j in first..=last {
                debug_assert!(m.cnt_block[j] > 0);
                m.cnt_block[j] -= 1;
                if m.cnt_block[j] == 0 && j < nblocks {
                    newly_free.push(j);
                }
            }
        }
    }
    for j in newly_free {
        if vs.is_taken(j) {
            vs.release_block(j);
        }
    }
    let class = vs.class;
    let has_free = vs.nfree > 0;

    if finished {
        // slab_in → slab_after: clear the old-layout fields and rejoin the
        // LRU (§5.2: "slab_in is reset to a regular slab and is inserted
        // into the LRU list again").
        let w1 = header_word1(vs.data_offset as u32, NO_OLD_CLASS, 0);
        pool.write_u64(slab_off + 8, w1);
        pool.write_u64(slab_off + 16, 0);
        pool.charge_store(t, slab_off + 8, 16);
        pool.flush(t, slab_off + 8, 16, FlushKind::Meta);
        pool.fence(t);
        vs.morph = None;
        inner.touch(slab_off);
    }
    if was_exhausted && has_free {
        inner.freelist_push(class, slab_off);
    }
    Ok(finished)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::ArenaInner;
    use crate::size_class::size_to_class;
    use crate::slab::{SlabHeader, VSlab};
    use crate::tcache::TCache;
    use crate::telemetry::Probes;
    use nvalloc_pmem::{LatencyMode, PmemConfig, PmemPool};
    use std::sync::Arc;

    fn pool() -> Arc<PmemPool> {
        PmemPool::new(PmemConfig::default().pool_size(4 << 20).latency_mode(LatencyMode::Off))
    }

    /// A counting probe on a registry of its own.
    fn probe() -> Probe {
        Arc::new(Probes::new(true)).probe()
    }

    /// Build an arena with one slab of `class` holding `live` persistent
    /// allocations (no tcache residue).
    fn arena_with_slab(
        p: &PmemPool,
        t: &mut PmThread,
        g: &GeometryTable,
        class: ClassId,
        live: &[usize],
    ) -> (crate::arena::ArenaInner, Vec<PmOffset>) {
        let mut inner = ArenaInner::new();
        let mut vs = VSlab::create(p, t, 0, class, 0, g.of(class), true);
        let pbm = vs.pbitmap(g);
        let mut addrs = Vec::new();
        for &i in live {
            pbm.set_persist(p, t, i);
            addrs.push(vs.block_addr(i));
        }
        vs.resync_from_persistent(p, g);
        inner.add_slab(vs);
        (inner, addrs)
    }

    use nvalloc_pmem::PmThread;

    #[test]
    fn morph_empty_slab_to_other_class() {
        let p = pool();
        let mut t = p.register_thread();
        let g = GeometryTable::new(6);
        let small = size_to_class(100).unwrap();
        let big = size_to_class(1500).unwrap();
        let (mut inner, _) = arena_with_slab(&p, &mut t, &g, small, &[]);
        let off = try_morph(&p, &mut t, &mut inner, &g, 0.2, big, None, &probe()).expect("morphs");
        assert_eq!(off, 0);
        let vs = &inner.slabs[&0];
        assert_eq!(vs.class, big);
        assert!(vs.morph.is_some());
        assert_eq!(vs.morph.as_ref().unwrap().cnt_slab, 0);
        assert!(inner.freelist_contains(big, 0));
        assert!(!inner.freelist_contains(small, 0));
        // Header reflects the new class with flag reset.
        let h = SlabHeader::read(&p, 0).unwrap();
        assert_eq!(h.class as usize, big);
        assert_eq!(h.flag, flag::NONE);
        assert!(h.is_morphed(), "old fields kept until last old block dies");
    }

    #[test]
    fn morph_preserves_live_old_blocks() {
        let p = pool();
        let mut t = p.register_thread();
        let g = GeometryTable::new(6);
        let small = size_to_class(100).unwrap(); // 112 B blocks
        let big = size_to_class(1200).unwrap();
        // Live blocks in the middle of the slab: away from the new
        // header, but overlapping the new block region.
        let nb = g.of(small).nblocks;
        let live = [nb / 2, nb / 2 + 4, nb / 2 + 8];
        let (mut inner, addrs) = arena_with_slab(&p, &mut t, &g, small, &live);
        try_morph(&p, &mut t, &mut inner, &g, 0.2, big, None, &probe()).expect("morphs");
        let vs = &inner.slabs[&0];
        let m = vs.morph.as_ref().unwrap();
        assert_eq!(m.cnt_slab, 3);
        assert_eq!(m.old_class, small);
        // Overlapped new blocks are withheld.
        let blocked: usize = m.cnt_block.iter().filter(|&&c| c > 0).count();
        assert!(blocked >= 1);
        // New allocations never land on a live old block.
        let old_ranges: Vec<(u64, u64)> =
            addrs.iter().map(|&a| (a, a + class_size(small) as u64)).collect();
        let mut scratch = inner.slabs.get_mut(&0).unwrap();
        let mut handed = Vec::new();
        while let Some(i) = scratch.take_block() {
            handed.push(scratch.block_addr(i));
        }
        for h in handed {
            let h_end = h + class_size(big) as u64;
            for &(s, e) in &old_ranges {
                assert!(h_end <= s || h >= e, "new block {h:#x} overlaps old block {s:#x}");
            }
        }
        let _ = &mut scratch;
    }

    #[test]
    fn occupied_slab_is_not_selected() {
        let p = pool();
        let mut t = p.register_thread();
        let g = GeometryTable::new(6);
        let small = size_to_class(100).unwrap();
        let big = size_to_class(1200).unwrap();
        let nb = g.of(small).nblocks;
        // 30% occupancy > SU=20%.
        let live: Vec<usize> = (0..(nb * 3 / 10)).map(|k| nb - 1 - k).collect();
        let (mut inner, _) = arena_with_slab(&p, &mut t, &g, small, &live);
        assert!(try_morph(&p, &mut t, &mut inner, &g, 0.2, big, None, &probe()).is_none());
    }

    #[test]
    fn tcache_resident_blocks_prevent_morph() {
        let p = pool();
        let mut t = p.register_thread();
        let g = GeometryTable::new(6);
        let small = size_to_class(100).unwrap();
        let big = size_to_class(1200).unwrap();
        let (mut inner, _) = arena_with_slab(&p, &mut t, &g, small, &[]);
        // Reserve blocks into a tcache: volatile occupancy without
        // persistent bits.
        let mut tc = TCache::new(6, 8);
        inner.fill_tcache(&g, small, &mut tc);
        assert!(
            try_morph(&p, &mut t, &mut inner, &g, 0.2, big, None, &probe()).is_none(),
            "slab with tcache-cached blocks must be ineligible"
        );
    }

    #[test]
    fn live_blocks_overlapping_new_header_prevent_morph() {
        let p = pool();
        let mut t = p.register_thread();
        let g = GeometryTable::new(6);
        let small = size_to_class(100).unwrap();
        let big = size_to_class(1200).unwrap();
        // Block 0 sits right after the old header — inside the new header
        // area (which is at least as large).
        let (mut inner, _) = arena_with_slab(&p, &mut t, &g, small, &[0]);
        assert!(try_morph(&p, &mut t, &mut inner, &g, 0.2, big, None, &probe()).is_none());
    }

    #[test]
    fn release_old_blocks_until_slab_after() {
        let p = pool();
        let mut t = p.register_thread();
        let g = GeometryTable::new(6);
        let small = size_to_class(100).unwrap();
        let big = size_to_class(1200).unwrap();
        let nb = g.of(small).nblocks;
        let live = [nb - 1, nb - 3];
        let (mut inner, addrs) = arena_with_slab(&p, &mut t, &g, small, &live);
        try_morph(&p, &mut t, &mut inner, &g, 0.2, big, None, &probe()).unwrap();

        assert!(find_old_block(&inner, 0, addrs[0]).is_some());
        let done = release_old_block(&p, &mut t, &mut inner, 0, addrs[0]).unwrap();
        assert!(!done, "one old block remains");
        // Double free of the same old block must fail.
        assert!(release_old_block(&p, &mut t, &mut inner, 0, addrs[0]).is_err());

        let done = release_old_block(&p, &mut t, &mut inner, 0, addrs[1]).unwrap();
        assert!(done, "last old block converts slab_in to slab_after");
        let vs = &inner.slabs[&0];
        assert!(vs.morph.is_none());
        let h = SlabHeader::read(&p, 0).unwrap();
        assert!(!h.is_morphed());
        assert_eq!(h.class as usize, big);
        // Back on the LRU: it may morph again later.
        assert!(inner.lru.values().any(|&o| o == 0));
    }

    #[test]
    fn release_unblocks_overlapped_new_blocks() {
        let p = pool();
        let mut t = p.register_thread();
        let g = GeometryTable::new(6);
        let small = size_to_class(100).unwrap();
        let big = size_to_class(1200).unwrap();
        let nb = g.of(small).nblocks;
        let (mut inner, addrs) = arena_with_slab(&p, &mut t, &g, small, &[nb / 2]);
        try_morph(&p, &mut t, &mut inner, &g, 0.2, big, None, &probe()).unwrap();
        let free_before = inner.slabs[&0].nfree;
        release_old_block(&p, &mut t, &mut inner, 0, addrs[0]).unwrap();
        let free_after = inner.slabs[&0].nfree;
        assert!(free_after > free_before, "blocked positions must open up");
    }

    #[test]
    fn morph_is_crash_consistent_via_flag() {
        // Persist tracking: a clean morph leaves flag == NONE in the
        // persistent image.
        let p = PmemPool::new(
            PmemConfig::default()
                .pool_size(4 << 20)
                .latency_mode(LatencyMode::Off)
                .crash_tracking(true),
        );
        let mut t = p.register_thread();
        let g = GeometryTable::new(6);
        let small = size_to_class(100).unwrap();
        let big = size_to_class(1200).unwrap();
        let nb = g.of(small).nblocks;
        let (mut inner, _) = arena_with_slab(&p, &mut t, &g, small, &[nb - 1]);
        try_morph(&p, &mut t, &mut inner, &g, 0.2, big, None, &probe()).unwrap();
        let img = PmemPool::from_crash_image(p.crash());
        let h = SlabHeader::read(&img, 0).unwrap();
        assert_eq!(h.flag, flag::NONE);
        assert_eq!(h.class as usize, big);
        assert!(h.is_morphed());
        assert_eq!(h.index_len, 1);
        // The index table survived and records the live block.
        let e = crate::slab::read_index_entry(&img, 0, h.index_table_off, 0);
        assert!(e.allocated);
        assert_eq!(e.old_idx as usize, nb - 1);
    }

    #[test]
    fn morph_progress_is_counted() {
        let p = pool();
        let mut t = p.register_thread();
        let g = GeometryTable::new(6);
        let small = size_to_class(100).unwrap();
        let big = size_to_class(1500).unwrap();
        let (mut inner, _) = arena_with_slab(&p, &mut t, &g, small, &[]);
        let m = Arc::new(Probes::new(true));
        try_morph(&p, &mut t, &mut inner, &g, 0.2, big, None, &m.probe()).expect("morphs");
        let s = m.snapshot();
        assert!(s.morph_candidates >= 1);
        assert_eq!(s.morph_started, 1);
        assert_eq!(s.morph_completed, 1);
    }

    #[test]
    fn same_class_is_never_a_candidate() {
        let p = pool();
        let mut t = p.register_thread();
        let g = GeometryTable::new(6);
        let small = size_to_class(100).unwrap();
        let (mut inner, _) = arena_with_slab(&p, &mut t, &g, small, &[]);
        assert!(try_morph(&p, &mut t, &mut inner, &g, 0.2, small, None, &probe()).is_none());
    }

    #[test]
    fn morph_large_to_small_class() {
        let p = pool();
        let mut t = p.register_thread();
        let g = GeometryTable::new(6);
        let big = size_to_class(1200).unwrap();
        let small = size_to_class(100).unwrap();
        let nb = g.of(big).nblocks;
        let (mut inner, addrs) = arena_with_slab(&p, &mut t, &g, big, &[nb - 1]);
        try_morph(&p, &mut t, &mut inner, &g, 0.3, small, None, &probe())
            .expect("downward morph works");
        let vs = &inner.slabs[&0];
        assert_eq!(vs.class, small);
        // Many small blocks are blocked by the one big old block.
        let m = vs.morph.as_ref().unwrap();
        let blocked = m.cnt_block.iter().filter(|&&c| c > 0).count();
        assert!(blocked >= class_size(big) / class_size(small));
        release_old_block(&p, &mut t, &mut inner, 0, addrs[0]).unwrap();
        assert!(inner.slabs[&0].morph.is_none());
    }

    // ---- pmsan mutation tests (ordering-sanitizer sensitivity) ----
    //
    // Each test deletes exactly one flush or one fence from the step-1
    // header-save sequence via the `faults` hooks and asserts the
    // sanitizer flags exactly that site — and nothing else.

    use nvalloc_pmem::PmsanKind;

    fn san_pool() -> Arc<PmemPool> {
        PmemPool::new(
            PmemConfig::default()
                .pool_size(4 << 20)
                .latency_mode(LatencyMode::Off)
                .crash_tracking(true)
                .pmsan(true),
        )
    }

    fn san_morph(skip_flush: bool, skip_fence: bool) -> Arc<PmemPool> {
        let p = san_pool();
        let mut t = p.register_thread();
        let g = GeometryTable::new(6);
        let small = size_to_class(100).unwrap();
        let big = size_to_class(1200).unwrap();
        let nb = g.of(small).nblocks;
        let live = [nb / 2, nb / 2 + 4];
        let (mut inner, _) = arena_with_slab(&p, &mut t, &g, small, &live);
        assert_eq!(p.pmsan_total(), 0, "setup must be ordering-clean");
        faults::SKIP_STEP1_FLUSH.with(|f| f.set(skip_flush));
        faults::SKIP_STEP1_FENCE.with(|f| f.set(skip_fence));
        let r = try_morph(&p, &mut t, &mut inner, &g, 0.2, big, None, &probe());
        faults::SKIP_STEP1_FLUSH.with(|f| f.set(false));
        faults::SKIP_STEP1_FENCE.with(|f| f.set(false));
        r.expect("morphs");
        p
    }

    #[test]
    fn pmsan_unmutated_morph_is_clean() {
        let p = san_morph(false, false);
        assert_eq!(p.pmsan_total(), 0, "{}", p.pmsan_report().unwrap().to_json());
    }

    #[test]
    fn pmsan_flags_deleted_step1_flush() {
        // Without the step-1 flush, its fence commits nothing: the very
        // next fence in the sequence is flagged as empty.
        let p = san_morph(true, false);
        let r = p.pmsan_report().unwrap();
        assert_eq!(r.count(PmsanKind::EmptyFence), 1, "{}", r.to_json());
        assert_eq!(r.total(), 1, "exactly the deleted site: {}", r.to_json());
    }

    #[test]
    fn pmsan_flags_deleted_step1_fence() {
        // Without the step-1 fence, the flag-word store in persist_flag
        // lands on the header line while its flush is still pending: the
        // OLD_SAVED transition could reach media before the fields it
        // depends on.
        let p = san_morph(false, true);
        let r = p.pmsan_report().unwrap();
        assert_eq!(r.count(PmsanKind::StoreUnfenced), 1, "{}", r.to_json());
        assert_eq!(r.total(), 1, "exactly the deleted site: {}", r.to_json());
        // The violation pinpoints the slab header line (slab at offset 0).
        assert_eq!(r.violations[0].line, 0);
    }
}
