//! Offline pool auditor — the "heap doctor".
//!
//! [`audit_pool`] opens a quiesced NVAlloc pool image (a saved heap file,
//! or a live pool right after recovery) and audits it *without mutating
//! anything*. It parses the image through recovery's own readers, so the
//! two can never disagree on what a valid structure is:
//!
//! * the pool header and layout ([`Layout::read`]);
//! * the extent inventory: booklog chain and entries (LOG mode) or the
//!   region table (in-place mode), with span, page, slab-alignment and
//!   disjointness checks (`ShardedLarge::recover` over a throwaway rtree);
//! * slab headers and morph index tables ([`SlabHeader::validate`]). A
//!   headerless slab extent can only come from a crash between a carve's
//!   booklog commit and its header write (recovery reclaims it as a
//!   leak), so it is counted on a crashed image and flagged on a cleanly
//!   shut down one; a header left mid-morph (a step flag set, or step 1
//!   torn before its flag) is flagged too.
//!
//! On top of those it keeps the cross-checks recovery does not need:
//!
//! * slab bitmaps: no ghost bits set beyond the slab's block count;
//! * WAL vs. committed state (LOG mode, crashed images only): the newest
//!   entry per block whose destination slot committed must agree with the
//!   authoritative bitmap / extent state;
//! * root slots: in-bounds targets.
//!
//! Alongside the violations the doctor reports per-class occupancy, a
//! ten-bin slab-occupancy histogram, and heap fragmentation figures, all
//! exportable as one JSON object ([`DoctorReport::to_json`]) — the format
//! consumed by the `nvalloc_doctor` binary and the CI audit step.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use nvalloc_pmem::{PmError, PmOffset, PmemPool};

use crate::arena::arena_state;
use crate::bitmap::set_bits;
use crate::config::{NvConfig, Variant};
use crate::front::{Layout, NvAllocator};
use crate::geometry::GeometryTable;
use crate::rtree::RTree;
use crate::shards::ShardedLarge;
use crate::size_class::{class_size, NUM_CLASSES, SLAB_SIZE};
use crate::slab::{flag, SlabHeader, VSlab};
use crate::telemetry::json::JsonObj;
use crate::wal::{newest_per_block, WalOp};
#[cfg(test)] // the unit tests build and corrupt their images with these
use crate::{bitmap::PmBitmap, booklog::BookLog};

/// One invariant violation found by the auditor, or the first check an
/// image reader refused (recovery returns it as `PmError::Corrupt`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Stable identifier of the failed check (e.g. `"slab_bitmap"`).
    pub check: &'static str,
    /// Human-readable description with the offending offsets.
    pub detail: String,
}

impl Violation {
    pub(crate) fn new(check: &'static str, detail: String) -> Violation {
        Violation { check, detail }
    }
}

impl From<Violation> for PmError {
    fn from(v: Violation) -> PmError {
        PmError::Corrupt(v.check)
    }
}

/// Per-class slab occupancy summary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassOccupancy {
    /// Size class index.
    pub class: usize,
    /// Block size of the class in bytes.
    pub block_size: usize,
    /// Slabs of this class found in the image.
    pub slabs: usize,
    /// Total block capacity across those slabs.
    pub capacity_blocks: usize,
    /// Blocks marked live in the persistent bitmaps.
    pub live_blocks: usize,
}

/// Result of one [`audit_pool`] run.
#[derive(Debug, Clone, Default)]
pub struct DoctorReport {
    /// Every invariant violation found (empty for a healthy image).
    pub violations: Vec<Violation>,
    /// Arena count used for the audit.
    pub arenas: usize,
    /// Effective large-allocator shard count.
    pub large_shards: usize,
    /// Slab extents with a persisted header.
    pub slabs: usize,
    /// Headerless slab extents: a crash landed between a carve's booklog
    /// commit and its header write. Recovery reclaims them as leaks; on a
    /// cleanly shut down image each is also a `slab_header` violation.
    pub headerless_slabs: usize,
    /// Slabs with a live morph index table.
    pub morphing_slabs: usize,
    /// Non-slab extents audited.
    pub extents: usize,
    /// Surviving bookkeeping-log entries (LOG mode).
    pub booklog_entries: usize,
    /// WAL entries inspected (newest per micro-log; LOG mode).
    pub wal_entries: usize,
    /// Live small-object bytes per the persistent bitmaps.
    pub live_small_bytes: u64,
    /// Live non-slab extent bytes.
    pub live_large_bytes: u64,
    /// Heap bytes spanned by live extents (base → highest extent end).
    pub heap_used_bytes: u64,
    /// Total heap bytes available to the large allocator.
    pub heap_bytes: u64,
    /// Per-class occupancy rows (classes with at least one slab).
    pub occupancy: Vec<ClassOccupancy>,
    /// Slab counts by occupancy decile (`[0–10 %, …, 90–100 %]`).
    pub occupancy_hist: [usize; 10],
}

impl DoctorReport {
    /// True when the audit found no violations.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Fraction of the used heap span not covered by live extents
    /// (external fragmentation; 0.0 when the heap is untouched). Shares
    /// its math with the live timeline sampler ([`crate::observe`]), so
    /// the offline and online views can never disagree on a quiesced
    /// heap.
    pub fn external_fragmentation(&self) -> f64 {
        let covered = crate::observe::covered_bytes(
            self.slabs + self.headerless_slabs,
            self.live_large_bytes,
        );
        crate::observe::external_fragmentation(self.heap_used_bytes, covered)
    }

    /// Live blocks over slab capacity (slab-internal utilisation; 1.0 for
    /// an image without slabs). Shared math with [`crate::observe`].
    pub fn slab_utilization(&self) -> f64 {
        let cap: usize = self.occupancy.iter().map(|c| c.capacity_blocks).sum();
        let live: usize = self.occupancy.iter().map(|c| c.live_blocks).sum();
        crate::observe::utilization(live, cap)
    }

    /// The whole report as one JSON object (machine-readable output of
    /// the `nvalloc_doctor` binary and the crash-matrix audits).
    pub fn to_json(&self) -> String {
        let mut o = JsonObj::new();
        o.field_str("report", "nvalloc_doctor");
        o.field_u64("violations", self.violations.len() as u64);
        let items: Vec<String> = self
            .violations
            .iter()
            .map(|v| {
                let mut vo = JsonObj::new();
                vo.field_str("check", v.check);
                vo.field_str("detail", &v.detail);
                vo.finish()
            })
            .collect();
        o.field_raw("violation_list", &format!("[{}]", items.join(",")));
        o.field_u64("arenas", self.arenas as u64);
        o.field_u64("large_shards", self.large_shards as u64);
        o.field_u64("slabs", self.slabs as u64);
        o.field_u64("headerless_slabs", self.headerless_slabs as u64);
        o.field_u64("morphing_slabs", self.morphing_slabs as u64);
        o.field_u64("extents", self.extents as u64);
        o.field_u64("booklog_entries", self.booklog_entries as u64);
        o.field_u64("wal_entries", self.wal_entries as u64);
        o.field_u64("live_small_bytes", self.live_small_bytes);
        o.field_u64("live_large_bytes", self.live_large_bytes);
        o.field_u64("heap_used_bytes", self.heap_used_bytes);
        o.field_u64("heap_bytes", self.heap_bytes);
        o.field_f64("external_fragmentation", self.external_fragmentation());
        o.field_f64("slab_utilization", self.slab_utilization());
        let rows: Vec<String> = self
            .occupancy
            .iter()
            .map(|c| {
                let mut co = JsonObj::new();
                co.field_u64("class", c.class as u64);
                co.field_u64("block_size", c.block_size as u64);
                co.field_u64("slabs", c.slabs as u64);
                co.field_u64("capacity_blocks", c.capacity_blocks as u64);
                co.field_u64("live_blocks", c.live_blocks as u64);
                co.finish()
            })
            .collect();
        o.field_raw("occupancy", &format!("[{}]", rows.join(",")));
        let hist: Vec<String> = self.occupancy_hist.iter().map(|n| n.to_string()).collect();
        o.field_raw("occupancy_hist", &format!("[{}]", hist.join(",")));
        o.finish()
    }
}

/// Audit the pool image against `cfg` (the configuration the pool was
/// created with; arena and root counts are additionally cross-checked
/// against the persistent header). Purely read-only.
pub fn audit_pool(pool: &PmemPool, cfg: &NvConfig) -> DoctorReport {
    let cfg = NvAllocator::effective(cfg.clone(), pool);
    let mut rep = DoctorReport::default();
    let viol = |rep: &mut DoctorReport, check: &'static str, detail: String| {
        rep.violations.push(Violation { check, detail });
    };

    let layout = match Layout::read(pool, &cfg) {
        Ok(l) => l,
        Err(v) => {
            rep.violations.push(v);
            return rep;
        }
    };
    rep.arenas = cfg.arenas;
    rep.large_shards = layout.large_shards;
    rep.heap_bytes = layout.heap_bytes as u64;
    let geoms = GeometryTable::new(cfg.stripes_for(cfg.interleave_bitmap));
    let arenas = layout.arenas(&cfg);
    let normal_shutdown = arenas.iter().all(|a| a.state(pool) == arena_state::NORMAL_SHUTDOWN);

    // ----- checks that need no extent inventory -----
    let mut latest = BTreeMap::new();
    if matches!(cfg.variant, Variant::Log) {
        let entries: Vec<_> = arenas.iter().flat_map(|a| a.wal.replay_entries(pool)).collect();
        rep.wal_entries = entries.len();
        for e in entries.iter().filter(|e| !e.is_valid(layout.heap_base, pool.size())) {
            viol(
                &mut rep,
                "wal_bounds",
                format!(
                    "WAL entry seq {}: addr {:#x} / dest {:#x} misaligned or outside the heap / pool",
                    e.seq, e.addr, e.dest
                ),
            );
        }
        latest = newest_per_block(
            entries.into_iter().filter(|e| e.is_valid(layout.heap_base, pool.size())),
        );
    }
    for i in 0..layout.roots_count {
        let p = pool.read_u64(layout.roots + (i * 8) as u64);
        if p != 0 && p >= pool.size() as u64 {
            viol(&mut rep, "root_bounds", format!("root {i} points outside the pool: {p:#x}"));
        }
    }
    // ----- extent inventory: recovery's reader, on a throwaway rtree -----
    let large = layout.large_config(&cfg);
    let rtree = Arc::new(RTree::new());
    let mut extents = match ShardedLarge::recover(pool, large, layout.large_shards, &rtree, false) {
        Ok((_, extents)) => extents,
        Err(v) => {
            rep.violations.push(v);
            return rep;
        }
    };
    extents.sort_unstable_by_key(|e| e.off);
    if cfg.log_bookkeeping {
        rep.booklog_entries = extents.len();
    }

    // ----- slab audits -----
    let mut slab_map: BTreeMap<PmOffset, VSlab> = BTreeMap::new();
    let mut old_live: BTreeSet<PmOffset> = BTreeSet::new();
    let mut per_class = vec![ClassOccupancy::default(); NUM_CLASSES];
    for e in &extents {
        if !e.is_slab {
            rep.extents += 1;
            rep.live_large_bytes += e.size as u64;
            continue;
        }
        let Some(h) = SlabHeader::read(pool, e.off) else {
            rep.headerless_slabs += 1;
            if normal_shutdown {
                viol(&mut rep, "slab_header", format!("slab extent {:#x} has no header", e.off));
            }
            continue;
        };
        rep.slabs += 1;
        if (flag::OLD_SAVED..=flag::NEW_WRITTEN).contains(&h.flag) || h.torn_morph_step1() {
            viol(
                &mut rep,
                "slab_flag",
                format!("slab {:#x}: left mid-morph (flag {})", e.off, h.flag),
            );
        }
        let vs = match h.validate(pool, e.off, e.veh, &geoms) {
            Ok(vs) => vs,
            Err(v) => {
                rep.violations.push(v);
                continue;
            }
        };
        let bs = vs.block_size();
        let mut live = 0usize;
        let mut ghosts = 0usize;
        for i in set_bits(&vs.pbitmap(&geoms).read_dense(pool)) {
            if i < vs.nblocks {
                live += 1;
            } else {
                ghosts += 1;
            }
        }
        if ghosts > 0 {
            viol(
                &mut rep,
                "slab_bitmap",
                format!("slab {:#x}: {ghosts} ghost bit(s) set beyond block {}", e.off, vs.nblocks),
            );
        }
        if let Some(m) = &vs.morph {
            rep.morphing_slabs += 1;
            let old_bs = class_size(m.old_class);
            for entry in m.index.iter().filter(|entry| entry.allocated) {
                let addr = e.off + (m.old_data_offset + entry.old_idx as usize * old_bs) as u64;
                rep.live_small_bytes += old_bs as u64;
                old_live.insert(addr);
            }
        }
        rep.live_small_bytes += (live * bs) as u64;
        let row = &mut per_class[vs.class];
        row.class = vs.class;
        row.block_size = bs;
        row.slabs += 1;
        row.capacity_blocks += vs.nblocks;
        row.live_blocks += live;
        if let Some(decile) = crate::observe::occupancy_decile(live, vs.nblocks) {
            rep.occupancy_hist[decile] += 1;
        }
        slab_map.insert(e.off, vs);
    }
    rep.occupancy = per_class.into_iter().filter(|c| c.slabs > 0).collect();

    // ----- WAL vs committed state (LOG variant) -----
    // On a cleanly shut down image the WAL is stale by definition (every
    // operation completed and destination slots may have been reused), so
    // the commit cross-check only applies to crashed / freshly recovered
    // images.
    if !normal_shutdown {
        for e in latest.values() {
            let committed = matches!(e.op, WalOp::Alloc) && pool.read_u64(e.dest) == e.addr;
            if !committed || old_live.contains(&e.addr) {
                continue; // uncommitted, or a live old-class block
            }
            let slab_off = e.addr & !(SLAB_SIZE as u64 - 1);
            if let Some(vs) = slab_map.get(&slab_off) {
                // Interior or old-layout addresses name no current block.
                let unset =
                    vs.block_index(e.addr).is_some_and(|i| !vs.pbitmap(&geoms).get(pool, i));
                if unset {
                    viol(
                        &mut rep,
                        "wal_commit",
                        format!(
                            "WAL seq {}: committed alloc of {:#x} but bitmap bit clear",
                            e.seq, e.addr
                        ),
                    );
                }
            } else if !extents.iter().any(|x| x.off == e.addr) {
                viol(
                    &mut rep,
                    "wal_commit",
                    format!(
                        "WAL seq {}: committed alloc of {:#x} not in any slab or extent",
                        e.seq, e.addr
                    ),
                );
            }
        }
    }

    // Fragmentation figures (shared math with the live sampler).
    rep.heap_used_bytes = crate::observe::heap_used_bytes(
        extents.iter().map(|e| e.off + e.size as u64).max(),
        layout.heap_base,
    );
    rep
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::PmAllocator;
    use crate::booklog::{CHUNK_HEADER_BYTES, ENTRIES_PER_CHUNK, LOG_HEADER_BYTES};
    use nvalloc_pmem::{LatencyMode, PmemConfig};
    use std::sync::Arc;

    fn pool() -> Arc<PmemPool> {
        PmemPool::new(PmemConfig::default().pool_size(96 << 20).latency_mode(LatencyMode::Off))
    }

    /// Create, run a small workload, exit; return the quiesced pool.
    fn quiesced(cfg: NvConfig) -> (Arc<PmemPool>, NvConfig) {
        let cfg = cfg.roots(64);
        let p = pool();
        let a = NvAllocator::create(Arc::clone(&p), cfg.clone()).expect("create");
        let mut t = a.thread();
        for i in 0..32usize {
            t.malloc_to(64 + (i % 5) * 256, a.root_offset(i)).expect("alloc");
        }
        for i in (0..32usize).step_by(2) {
            t.free_from(a.root_offset(i)).expect("free");
        }
        t.malloc_to(1 << 20, a.root_offset(40)).expect("large alloc");
        drop(t);
        a.exit();
        (p, cfg)
    }

    #[test]
    fn clean_pool_audits_clean() {
        let (p, cfg) = quiesced(NvConfig::log());
        let rep = audit_pool(&p, &cfg);
        assert!(rep.clean(), "unexpected violations: {:?}", rep.violations);
        assert!(rep.slabs > 0, "workload must have created slabs");
        assert_eq!(rep.extents, 1, "exactly one non-slab extent");
        assert!(rep.live_small_bytes > 0);
        assert!(rep.occupancy.iter().any(|c| c.live_blocks > 0));
        let j = rep.to_json();
        assert!(j.contains("\"violations\":0"), "json must report zero violations: {j}");
    }

    /// The live timeline sampler and the offline doctor share their
    /// fragmentation/occupancy math; on a quiesced heap (threads gone,
    /// deferred frees drained) the volatile and persistent views must
    /// agree exactly.
    #[test]
    fn live_sampler_matches_doctor_on_quiesced_heap() {
        let cfg = NvConfig::log().roots(64);
        let p = pool();
        let a = NvAllocator::create(Arc::clone(&p), cfg.clone()).expect("create");
        let mut t = a.thread();
        for i in 0..32usize {
            t.malloc_to(64 + (i % 5) * 256, a.root_offset(i)).expect("alloc");
        }
        for i in (0..32usize).step_by(2) {
            t.free_from(a.root_offset(i)).expect("free");
        }
        t.malloc_to(1 << 20, a.root_offset(40)).expect("large alloc");
        drop(t);
        a.quiesce();
        a.exit();
        let live = a.timeline_sample_now();
        let rep = audit_pool(&p, &cfg);
        assert!(rep.clean(), "{:?}", rep.violations);
        assert_eq!(live.heap_used_bytes, rep.heap_used_bytes);
        assert_eq!(live.external_frag, rep.external_fragmentation());
        assert_eq!(live.slab_utilization, rep.slab_utilization());
        let frames: usize = live.shards.iter().map(|s| s.active_slabs).sum();
        assert_eq!(frames, rep.slabs, "every live slab frame has a header");
        let large: u64 = live.shards.iter().map(|s| s.live_large_bytes).sum();
        assert_eq!(large, rep.live_large_bytes);
        let extents: usize = live.shards.iter().map(|s| s.active_extents).sum();
        assert_eq!(extents, rep.extents);
        // Per-class occupancy agrees row by row (sampler rows are
        // per-arena; fold them before comparing).
        let mut per_class = std::collections::BTreeMap::new();
        for g in live.arenas.iter().flat_map(|ar| &ar.classes) {
            let e = per_class.entry(g.class).or_insert((0usize, 0usize, 0usize));
            e.0 += g.slabs;
            e.1 += g.capacity_blocks;
            e.2 += g.live_blocks;
        }
        assert_eq!(per_class.len(), rep.occupancy.len());
        for c in &rep.occupancy {
            let &(slabs, cap, live_blocks) =
                per_class.get(&c.class).expect("class present in live sample");
            assert_eq!(
                (slabs, cap, live_blocks),
                (c.slabs, c.capacity_blocks, c.live_blocks),
                "class {} occupancy",
                c.class
            );
        }
        // Decile occupancy histograms agree bin by bin: both sides bin
        // through `observe::occupancy_decile`.
        let mut hist = [0usize; 10];
        for ar in &live.arenas {
            for (i, n) in ar.occupancy_hist.iter().enumerate() {
                hist[i] += n;
            }
        }
        assert_eq!(hist, rep.occupancy_hist, "decile occupancy histogram");
    }

    #[test]
    fn in_place_mode_audits_clean() {
        let (p, cfg) = quiesced(NvConfig::base());
        let rep = audit_pool(&p, &cfg);
        assert!(rep.clean(), "unexpected violations: {:?}", rep.violations);
        assert!(rep.slabs > 0);
    }

    #[test]
    fn unformatted_pool_is_flagged() {
        let p = pool();
        let rep = audit_pool(&p, &NvConfig::log());
        assert_eq!(rep.violations.len(), 1);
        assert_eq!(rep.violations[0].check, "pool_magic");
    }

    #[test]
    fn corrupt_slab_class_is_detected() {
        let (p, cfg) = quiesced(NvConfig::log());
        assert!(audit_pool(&p, &cfg).clean());
        // Corrupt the class field of a slab header (magic preserved).
        let layout = Layout::compute(&cfg, p.size()).unwrap();
        let base = layout.large_config(&cfg);
        let sc = &ShardedLarge::shard_cfgs(&base, layout.large_shards)[0];
        let (_log, entries) =
            BookLog::recover(&p, sc.booklog_base, sc.booklog_bytes, sc.booklog_stripes, false, 1);
        let slab = entries
            .iter()
            .filter(|(_, e)| e.is_slab)
            .map(|(_, e)| e.addr)
            .find(|&a| SlabHeader::read(&p, a).is_some())
            .expect("a headered slab in shard 0");
        p.write_u64(slab, crate::slab::header_word0(999, flag::NONE));
        let rep = audit_pool(&p, &cfg);
        assert!(rep.violations.iter().any(|v| v.check == "slab_class"), "{:?}", rep.violations);
    }

    /// A headerless slab extent is a crash between a carve's booklog
    /// commit and its header write: counted on a crashed image, a
    /// violation on a cleanly shut down one.
    #[test]
    fn headerless_slab_is_flagged_only_after_clean_shutdown() {
        let (p, cfg) = quiesced(NvConfig::log());
        let layout = Layout::compute(&cfg, p.size()).unwrap();
        // Root 1 survives `quiesced`'s frees; scrub its slab's header.
        let slab = p.read_u64(layout.roots + 8) & !(SLAB_SIZE as u64 - 1);
        p.write_u64(slab, 0);
        let rep = audit_pool(&p, &cfg);
        assert_eq!(rep.headerless_slabs, 1);
        assert!(rep.violations.iter().any(|v| v.check == "slab_header"), "{:?}", rep.violations);
        p.write_u64(layout.arena_flags, arena_state::RUNNING);
        let rep = audit_pool(&p, &cfg);
        assert_eq!(rep.headerless_slabs, 1);
        assert!(rep.clean(), "{:?}", rep.violations);
    }

    #[test]
    fn flipped_bitmap_bit_is_detected_on_crashed_image() {
        // Simulated crash: allocate with a committed WAL entry, then drop
        // the allocator without `exit()` (arena flags stay RUNNING).
        let cfg = NvConfig::log().roots(8);
        let p = pool();
        let a = NvAllocator::create(Arc::clone(&p), cfg.clone()).expect("create");
        let mut t = a.thread();
        let addr = t.malloc_to(64, a.root_offset(0)).expect("alloc");
        drop(t);
        drop(a);
        assert!(audit_pool(&p, &cfg).clean(), "crashed-but-uncorrupted image must audit clean");
        // Flip the committed block's bitmap bit: now the WAL says the
        // alloc committed but the authoritative bitmap disagrees.
        let slab_off = addr & !(SLAB_SIZE as u64 - 1);
        let h = SlabHeader::read(&p, slab_off).expect("slab header");
        let geoms = GeometryTable::new(cfg.stripes_for(cfg.interleave_bitmap));
        let g = geoms.of(h.class as usize);
        let idx = (addr - slab_off) as usize - h.data_offset as usize;
        let bm = PmBitmap::new(slab_off + g.bitmap_off as u64, g.bitmap);
        bm.write_volatile(&p, idx / g.block_size, false);
        let rep = audit_pool(&p, &cfg);
        assert!(rep.violations.iter().any(|v| v.check == "wal_commit"), "{:?}", rep.violations);
    }

    #[test]
    fn orphaned_booklog_entry_is_detected() {
        let (p, cfg) = quiesced(NvConfig::log());
        let layout = Layout::compute(&cfg, p.size()).unwrap();
        let base = layout.large_config(&cfg);
        let sc = &ShardedLarge::shard_cfgs(&base, layout.large_shards)[0];
        // Forge an extent entry pointing past the pool into a free slot of
        // chunk 0 (the head chunk of shard 0's chain).
        let bogus_addr = (p.size() as u64 + (4 << 20)) & !4095;
        let word = 1u64 | (bogus_addr >> 12) << 3 | 1 << 38; // TYPE_EXTENT, one page
        let chunk0 = sc.booklog_base + LOG_HEADER_BYTES as u64;
        let mut planted = false;
        for slot in 0..ENTRIES_PER_CHUNK {
            let off = chunk0 + CHUNK_HEADER_BYTES as u64 + (slot * 8) as u64;
            if p.read_u64(off) == 0 {
                p.write_u64(off, word);
                planted = true;
                break;
            }
        }
        assert!(planted, "chunk 0 must have a free slot");
        let rep = audit_pool(&p, &cfg);
        assert!(rep.violations.iter().any(|v| v.check == "extent_span"), "{:?}", rep.violations);
    }

    #[test]
    fn report_json_shape() {
        let rep = DoctorReport {
            violations: vec![Violation { check: "x", detail: "a \"quoted\" detail".into() }],
            ..DoctorReport::default()
        };
        let j = rep.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"violations\":1"));
        assert!(j.contains("\\\"quoted\\\""));
        assert!(j.contains("\"occupancy_hist\":[0,0,0,0,0,0,0,0,0,0]"));
    }
}
