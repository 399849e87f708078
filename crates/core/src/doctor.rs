//! Offline pool auditor — the "heap doctor".
//!
//! [`audit_pool`] opens a quiesced NVAlloc pool image (a saved heap file,
//! or a live pool right after recovery) and cross-checks every persistent
//! structure against the others *without mutating anything*:
//!
//! * pool header: magic word, recorded arena and root counts vs. the
//!   supplied configuration, and a successful [`Layout`] recomputation;
//! * bookkeeping log (LOG mode): every surviving entry must name a
//!   page-multiple extent inside its shard's heap span, slab entries must
//!   be slab-sized and slab-aligned, and no two live extents may overlap;
//! * region table (in-place mode): the same checks driven from the
//!   per-shard region-header slots instead of the log;
//! * slab headers: class range, morph-step flag (a quiesced image must
//!   not be mid-morph), data-offset bounds, and — for morphing slabs —
//!   index-table bounds and old-block geometry. A headerless slab extent
//!   can only come from a crash between a carve's booklog commit and its
//!   header write (recovery reclaims it as a leak), so it is counted on a
//!   crashed image and flagged on a cleanly shut down one;
//! * slab bitmaps: no ghost bits set beyond the slab's block count;
//! * WAL vs. committed state (LOG mode, crashed images only): the newest
//!   entry per block whose destination slot committed must agree with the
//!   authoritative bitmap / extent state;
//! * root slots: in-bounds targets;
//! * provenance sidelogs (profiling-enabled pools): every sampled object
//!   surviving sidelog replay must name a live heap block of the recorded
//!   size on a cleanly shut down, lossless image — the profiler's
//!   re-attribution guarantee — and the sampled live-byte total must not
//!   exceed the swept heap live bytes.
//!
//! Alongside the violations the doctor reports per-class occupancy, a
//! ten-bin slab-occupancy histogram, and heap fragmentation figures, all
//! exportable as one JSON object ([`DoctorReport::to_json`]) — the format
//! consumed by the `nvalloc_doctor` binary and the CI audit step.

use std::collections::BTreeMap;

use nvalloc_pmem::{PmOffset, PmemPool};

use crate::arena::arena_state;
use crate::bitmap::PmBitmap;
use crate::booklog::BookLog;
use crate::config::{NvConfig, Variant};
use crate::front::{Layout, NvAllocator, POOL_MAGIC};
use crate::geometry::GeometryTable;
use crate::large::{HDR_SLOTS_BYTES, HDR_SLOT_BYTES, PAGE};
use crate::shards::ShardedLarge;
use crate::size_class::{class_size, NUM_CLASSES, SLAB_SIZE};
use crate::slab::{flag, read_index_entry, SlabHeader, NO_OLD_CLASS};
use crate::telemetry::json::JsonObj;
use crate::wal::{WalEntry, WalOp, WalRegion};

/// One invariant violation found by the auditor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Stable identifier of the failed check (e.g. `"slab_bitmap"`).
    pub check: &'static str,
    /// Human-readable description with the offending offsets.
    pub detail: String,
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

/// Per-site attribution row reconstructed from the provenance sidelogs
/// (profiling-enabled pools only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfSiteRow {
    /// FNV-1a hash of the creating call site.
    pub site: u64,
    /// Surviving sampled objects attributed to the site.
    pub live_objects: u64,
    /// Bytes of those objects (granted sizes, not sample weights).
    pub live_bytes: u64,
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
    /// Sampling period persisted in the pool header (0 = profiling off;
    /// the prof_* fields below are then all zero).
    pub prof_sample_bytes: u64,
    /// Raw provenance-sidelog records scanned across all arenas.
    pub prof_records: usize,
    /// Sampled objects surviving sidelog replay.
    pub prof_live_sampled: usize,
    /// Distinct call sites among the attributed survivors.
    pub prof_sites: usize,
    /// Surviving records with no matching live heap block. Expected on
    /// crashed or overflowed images; a violation on clean lossless ones.
    pub prof_stale_records: usize,
    /// Records dropped by sidelog overflow (summed across arenas).
    pub prof_dropped: u64,
    /// Bytes of surviving sampled objects per the sidelogs.
    pub prof_sampled_live_bytes: u64,
    /// Per-site attribution rows (survivors matched to live blocks).
    pub prof_site_table: Vec<ProfSiteRow>,
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
        o.field_u64("prof_sample_bytes", self.prof_sample_bytes);
        o.field_u64("prof_records", self.prof_records as u64);
        o.field_u64("prof_live_sampled", self.prof_live_sampled as u64);
        o.field_u64("prof_sites", self.prof_sites as u64);
        o.field_u64("prof_stale_records", self.prof_stale_records as u64);
        o.field_u64("prof_dropped", self.prof_dropped);
        o.field_u64("prof_sampled_live_bytes", self.prof_sampled_live_bytes);
        let sites: Vec<String> = self
            .prof_site_table
            .iter()
            .map(|s| {
                let mut so = JsonObj::new();
                so.field_str("site", &format!("{:016x}", s.site));
                so.field_u64("live_objects", s.live_objects);
                so.field_u64("live_bytes", s.live_bytes);
                so.finish()
            })
            .collect();
        o.field_raw("prof_site_table", &format!("[{}]", sites.join(",")));
        o.finish()
    }
}

/// What the doctor remembers about a slab for the later WAL cross-check.
struct SlabInfo {
    class: usize,
    data_offset: usize,
    nblocks: usize,
    /// Old-block starts with a live morph-index entry.
    morph_live: Vec<PmOffset>,
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

    if pool.read_u64(0) != POOL_MAGIC {
        viol(&mut rep, "pool_magic", format!("word 0 is {:#x}, not POOL_MAGIC", pool.read_u64(0)));
        return rep;
    }
    let h_arenas = pool.read_u64(8);
    let h_roots = pool.read_u64(16);
    if h_arenas != cfg.arenas as u64 {
        viol(&mut rep, "pool_header", format!("header arenas {h_arenas} != cfg {}", cfg.arenas));
    }
    if h_roots != cfg.roots as u64 {
        viol(&mut rep, "pool_header", format!("header roots {h_roots} != cfg {}", cfg.roots));
    }
    let layout = match Layout::compute(&cfg, pool.size()) {
        Ok(l) => l,
        Err(e) => {
            viol(&mut rep, "layout", format!("layout does not fit this pool: {e}"));
            return rep;
        }
    };
    rep.arenas = cfg.arenas;
    rep.large_shards = layout.large_shards;
    rep.heap_bytes = layout.heap_bytes as u64;
    let geoms = GeometryTable::new(cfg.stripes_for(cfg.interleave_bitmap));
    let normal_shutdown = (0..cfg.arenas).all(|i| {
        pool.read_u64(layout.arena_flags + (i * 64) as u64) == arena_state::NORMAL_SHUTDOWN
    });

    // ----- extent inventory: booklog (LOG) or region table (in-place) -----
    let base = layout.large_config(&cfg);
    let mut extents: Vec<(PmOffset, usize, bool)> = Vec::new();
    for (si, sc) in ShardedLarge::shard_cfgs(&base, layout.large_shards).iter().enumerate() {
        let span_end = sc.heap_base + sc.heap_bytes as u64;
        let check_extent = |rep: &mut DoctorReport, addr: PmOffset, size: usize, slab: bool| {
            if addr < sc.heap_base || addr + size as u64 > span_end {
                viol(
                    rep,
                    "extent_span",
                    format!(
                        "shard {si}: extent {addr:#x}+{size:#x} outside heap span \
                         [{:#x}, {span_end:#x})",
                        sc.heap_base
                    ),
                );
                return false;
            }
            if size == 0 || !size.is_multiple_of(PAGE) {
                viol(rep, "extent_size", format!("extent {addr:#x}: size {size:#x} not pages"));
                return false;
            }
            if slab && (size != SLAB_SIZE || !addr.is_multiple_of(SLAB_SIZE as u64)) {
                viol(
                    rep,
                    "slab_extent",
                    format!("slab extent {addr:#x}+{size:#x} not one aligned slab"),
                );
                return false;
            }
            true
        };
        if cfg.log_bookkeeping {
            let (_log, entries) = BookLog::recover(
                pool,
                sc.booklog_base,
                sc.booklog_bytes,
                sc.booklog_stripes,
                false,
                usize::MAX,
            );
            for (_er, e) in entries {
                rep.booklog_entries += 1;
                if check_extent(&mut rep, e.addr, e.size as usize, e.is_slab) {
                    extents.push((e.addr, e.size as usize, e.is_slab));
                }
            }
        } else {
            let n = pool.read_u64(sc.region_table_base);
            if 8 + n * 8 > sc.region_table_bytes as u64 {
                viol(
                    &mut rep,
                    "region_table",
                    format!("shard {si}: region count {n} overflows its table slice"),
                );
                continue;
            }
            for r in 1..=n {
                let roff = pool.read_u64(sc.region_table_base + r * 8);
                if roff < sc.heap_base || roff + HDR_SLOTS_BYTES as u64 > span_end {
                    viol(
                        &mut rep,
                        "region_table",
                        format!("shard {si}: region header {roff:#x} outside heap span"),
                    );
                    continue;
                }
                for s in 0..HDR_SLOTS_BYTES / HDR_SLOT_BYTES {
                    let slot = roff + (s * HDR_SLOT_BYTES) as u64;
                    let w1 = pool.read_u64(slot + 8);
                    if w1 & 1 == 1 {
                        let addr = pool.read_u64(slot);
                        let size = (w1 >> 8) as usize;
                        let is_slab = w1 >> 1 & 1 == 1;
                        if check_extent(&mut rep, addr, size, is_slab) {
                            extents.push((addr, size, is_slab));
                        }
                    }
                }
            }
        }
    }

    // Live extents must be pairwise disjoint.
    extents.sort_unstable();
    for w in extents.windows(2) {
        let (a_off, a_size, _) = w[0];
        let (b_off, _, _) = w[1];
        if a_off + a_size as u64 > b_off {
            viol(
                &mut rep,
                "extent_overlap",
                format!("extents {a_off:#x}+{a_size:#x} and {b_off:#x} overlap"),
            );
        }
    }

    // ----- slab audits -----
    // With profiling on, the sweep additionally collects every live block
    // address → granted size, the ground truth the sidelog join below
    // re-attributes against.
    let prof_on = cfg.profile_sample_bytes > 0;
    let mut prof_live: BTreeMap<PmOffset, usize> = BTreeMap::new();
    let mut slab_map: BTreeMap<PmOffset, SlabInfo> = BTreeMap::new();
    let mut per_class = vec![ClassOccupancy::default(); NUM_CLASSES];
    for &(addr, size, is_slab) in &extents {
        if !is_slab {
            rep.extents += 1;
            rep.live_large_bytes += size as u64;
            if prof_on {
                prof_live.insert(addr, size);
            }
            continue;
        }
        let Some(h) = SlabHeader::read(pool, addr) else {
            rep.headerless_slabs += 1;
            if normal_shutdown {
                viol(&mut rep, "slab_header", format!("slab extent {addr:#x} has no header"));
            }
            continue;
        };
        rep.slabs += 1;
        let class = h.class as usize;
        if class >= NUM_CLASSES {
            viol(&mut rep, "slab_class", format!("slab {addr:#x}: class {class} out of range"));
            continue;
        }
        if h.flag > flag::NEW_WRITTEN {
            viol(&mut rep, "slab_flag", format!("slab {addr:#x}: unknown morph flag {}", h.flag));
            continue;
        }
        if h.flag != flag::NONE {
            viol(
                &mut rep,
                "slab_flag",
                format!("slab {addr:#x}: left mid-morph (flag {})", h.flag),
            );
        }
        let g = geoms.of(class);
        let header_end = g.bitmap_off + g.bitmap.bytes();
        let doff = h.data_offset as usize;
        if doff < header_end || doff > SLAB_SIZE {
            viol(
                &mut rep,
                "slab_data_offset",
                format!("slab {addr:#x}: data offset {doff:#x} outside [{header_end:#x}, 64K]"),
            );
            continue;
        }
        let nblocks = g.nblocks_at(doff);
        let bm = PmBitmap::new(addr + g.bitmap_off as u64, g.bitmap);
        let mut live = 0usize;
        let mut ghosts = 0usize;
        for i in 0..g.bitmap.nbits() {
            if bm.get(pool, i) {
                if i < nblocks {
                    live += 1;
                    if prof_on {
                        prof_live.insert(addr + (doff + i * g.block_size) as u64, g.block_size);
                    }
                } else {
                    ghosts += 1;
                }
            }
        }
        if ghosts > 0 {
            viol(
                &mut rep,
                "slab_bitmap",
                format!("slab {addr:#x}: {ghosts} ghost bit(s) set beyond block {nblocks}"),
            );
        }
        let mut morph_live = Vec::new();
        if h.old_class != NO_OLD_CLASS {
            rep.morphing_slabs += 1;
            let old_class = h.old_class as usize;
            if !h.morph_index_valid(header_end, doff) {
                let table_off = h.index_table_off as usize;
                let table_end = table_off + 2 * h.index_len as usize;
                viol(
                    &mut rep,
                    "morph_index",
                    format!(
                        "slab {addr:#x}: old class {old_class}, index table \
                         [{table_off:#x}, {table_end:#x}) not an even offset inside \
                         [bitmap end, data offset)"
                    ),
                );
            } else {
                let old_bs = class_size(old_class);
                let old_doff = h.old_data_offset as usize;
                for i in 0..h.index_len as usize {
                    let e = read_index_entry(pool, addr, h.index_table_off, i);
                    let start = old_doff + e.old_idx as usize * old_bs;
                    if start + old_bs > SLAB_SIZE {
                        viol(
                            &mut rep,
                            "morph_index",
                            format!(
                                "slab {addr:#x}: index entry {i} names old block \
                                 {start:#x}+{old_bs:#x} past the slab end"
                            ),
                        );
                    } else if e.allocated {
                        rep.live_small_bytes += old_bs as u64;
                        morph_live.push(addr + start as u64);
                        if prof_on {
                            prof_live.insert(addr + start as u64, old_bs);
                        }
                    }
                }
            }
        } else if h.index_len != 0 {
            viol(
                &mut rep,
                "morph_index",
                format!("slab {addr:#x}: index_len {} without an old class", h.index_len),
            );
        }
        rep.live_small_bytes += (live * g.block_size) as u64;
        per_class[class].class = class;
        per_class[class].block_size = g.block_size;
        per_class[class].slabs += 1;
        per_class[class].capacity_blocks += nblocks;
        per_class[class].live_blocks += live;
        if let Some(decile) = crate::observe::occupancy_decile(live, nblocks) {
            rep.occupancy_hist[decile] += 1;
        }
        slab_map.insert(addr, SlabInfo { class, data_offset: doff, nblocks, morph_live });
    }
    rep.occupancy = per_class.into_iter().filter(|c| c.slabs > 0).collect();

    // ----- WAL vs committed state (LOG variant) -----
    if matches!(cfg.variant, Variant::Log) {
        let mut latest: BTreeMap<PmOffset, WalEntry> = BTreeMap::new();
        for i in 0..cfg.arenas {
            let region = WalRegion::open(
                layout.wal_base + (i * WalRegion::region_bytes(layout.wal_micro_count)) as u64,
                layout.wal_micro_count,
            );
            for e in region.replay_entries(pool) {
                rep.wal_entries += 1;
                if !e.is_valid(layout.heap_base, pool.size()) {
                    viol(
                        &mut rep,
                        "wal_bounds",
                        format!(
                            "WAL entry seq {}: addr {:#x} / dest {:#x} misaligned or outside \
                             the heap / pool",
                            e.seq, e.addr, e.dest
                        ),
                    );
                    continue;
                }
                let keep = latest.get(&e.addr).is_none_or(|p| e.seq > p.seq);
                if keep {
                    latest.insert(e.addr, e);
                }
            }
        }
        // On a cleanly shut down image the WAL is stale by definition
        // (every operation completed and destination slots may have been
        // reused), so the commit cross-check only applies to crashed /
        // freshly recovered images.
        if !normal_shutdown {
            for e in latest.values() {
                let committed = matches!(e.op, WalOp::Alloc) && pool.read_u64(e.dest) == e.addr;
                if !committed {
                    continue;
                }
                let slab_off = e.addr & !(SLAB_SIZE as u64 - 1);
                if let Some(info) = slab_map.get(&slab_off) {
                    if info.morph_live.contains(&e.addr) {
                        continue; // live old-class block
                    }
                    let rel = (e.addr - slab_off) as usize;
                    let bs = class_size(info.class);
                    if rel < info.data_offset || !(rel - info.data_offset).is_multiple_of(bs) {
                        continue; // interior or old-layout address
                    }
                    let idx = (rel - info.data_offset) / bs;
                    let g = geoms.of(info.class);
                    let bm = PmBitmap::new(slab_off + g.bitmap_off as u64, g.bitmap);
                    if idx < info.nblocks && !bm.get(pool, idx) {
                        viol(
                            &mut rep,
                            "wal_commit",
                            format!(
                                "WAL seq {}: committed alloc of {:#x} but bitmap bit clear",
                                e.seq, e.addr
                            ),
                        );
                    }
                } else if !extents.iter().any(|&(off, _, _)| off == e.addr) {
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
    }

    // ----- roots -----
    for i in 0..layout.roots_count {
        let p = pool.read_u64(layout.roots + (i * 8) as u64);
        if p != 0 && p >= pool.size() as u64 {
            viol(&mut rep, "root_bounds", format!("root {i} points outside the pool: {p:#x}"));
        }
    }

    // ----- provenance sidelogs vs. the live sweep (profiling pools) -----
    if prof_on {
        rep.prof_sample_bytes = cfg.profile_sample_bytes;
        for a in 0..cfg.arenas {
            let w = pool.read_u64(layout.prof_base + (a * crate::prof::PROF_LOG_BYTES) as u64);
            if w > 1 {
                viol(
                    &mut rep,
                    "prof_log_header",
                    format!("arena {a}: sidelog active-half word is {w:#x}, not 0 or 1"),
                );
            }
        }
        let (recs, states) = crate::prof::Prof::scan_raw(pool, layout.prof_base, cfg.arenas);
        rep.prof_records = recs.len();
        rep.prof_dropped = states.iter().map(|&(_, _, d)| d).sum();
        for r in &recs {
            if r.kind != crate::prof::PROF_KIND_ALLOC && r.kind != crate::prof::PROF_KIND_FREE {
                viol(
                    &mut rep,
                    "prof_record",
                    format!("sidelog record seq {}: unknown kind {}", r.seq, r.kind),
                );
            }
        }
        let survivors = crate::prof::Prof::replay(&recs);
        rep.prof_live_sampled = survivors.len();
        // Survivors naming dead blocks are expected on crash images (the
        // ALLOC record is fenced *before* its commit) and after overflow
        // (the matching FREE record may have been dropped). On a cleanly
        // shut down, lossless image every survivor must name a live block
        // of the recorded size — the re-attribution guarantee.
        let strict = normal_shutdown && rep.prof_dropped == 0;
        let mut sites: BTreeMap<u64, ProfSiteRow> = BTreeMap::new();
        for (&addr, obj) in &survivors {
            rep.prof_sampled_live_bytes += obj.size;
            match prof_live.get(&addr) {
                Some(&sz) if sz as u64 == obj.size => {
                    let row = sites.entry(obj.site).or_insert(ProfSiteRow {
                        site: obj.site,
                        live_objects: 0,
                        live_bytes: 0,
                    });
                    row.live_objects += 1;
                    row.live_bytes += obj.size;
                }
                Some(&sz) => {
                    rep.prof_stale_records += 1;
                    if strict {
                        viol(
                            &mut rep,
                            "prof_attribution",
                            format!(
                                "sampled object {addr:#x} (site {:016x}): sidelog size {} \
                                 != heap block size {sz}",
                                obj.site, obj.size
                            ),
                        );
                    }
                }
                None => {
                    rep.prof_stale_records += 1;
                    if strict {
                        viol(
                            &mut rep,
                            "prof_attribution",
                            format!(
                                "sampled object {addr:#x} (site {:016x}) survives replay \
                                 but no live block is at that address",
                                obj.site
                            ),
                        );
                    }
                }
            }
        }
        rep.prof_sites = sites.len();
        rep.prof_site_table = sites.into_values().collect();
        let live_total = rep.live_small_bytes + rep.live_large_bytes;
        let sampled_total = rep.prof_sampled_live_bytes;
        if strict && sampled_total > live_total {
            viol(
                &mut rep,
                "prof_live_bytes",
                format!(
                    "sidelog live bytes {sampled_total} exceed swept heap live bytes {live_total}"
                ),
            );
        }
    }

    // Fragmentation figures (shared math with the live sampler).
    rep.heap_used_bytes = crate::observe::heap_used_bytes(
        extents.iter().map(|&(off, size, _)| off + size as u64).max(),
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

    /// On a cleanly shut down profiling pool every sidelog survivor must
    /// re-attribute to a live heap block of the recorded size.
    #[test]
    fn profiled_pool_attributes_all_survivors() {
        let (p, cfg) = quiesced(NvConfig::log().profiling(256));
        let rep = audit_pool(&p, &cfg);
        assert!(rep.clean(), "unexpected violations: {:?}", rep.violations);
        assert_eq!(rep.prof_sample_bytes, 256);
        assert!(rep.prof_records > 0, "workload must have appended sidelog records");
        assert!(rep.prof_live_sampled > 0, "half the roots stay live, so survivors exist");
        assert_eq!(rep.prof_stale_records, 0, "every survivor must match a live block");
        assert_eq!(rep.prof_dropped, 0);
        assert!(rep.prof_sites >= 1);
        let attributed: u64 = rep.prof_site_table.iter().map(|r| r.live_bytes).sum();
        assert_eq!(attributed, rep.prof_sampled_live_bytes);
        assert!(rep.prof_sampled_live_bytes <= rep.live_small_bytes + rep.live_large_bytes);
        let j = rep.to_json();
        assert!(j.contains("\"prof_stale_records\":0"), "{j}");
        assert!(j.contains("\"prof_site_table\":[{"), "{j}");
    }

    /// A sidelog record naming an address with no live block is the
    /// attribution violation on a clean image.
    #[test]
    fn forged_sidelog_record_is_detected() {
        use crate::prof::{
            PROF_HALF_RECORDS, PROF_KIND_ALLOC, PROF_LOG_HEADER_BYTES, PROF_RECORD_BYTES,
        };
        let (p, cfg) = quiesced(NvConfig::log().profiling(256));
        assert!(audit_pool(&p, &cfg).clean());
        let layout = Layout::compute(&cfg, p.size()).unwrap();
        // First free slot of arena 0's active half.
        let lb = layout.prof_base;
        let active = (p.read_u64(lb) & 1) as usize;
        let hb = lb
            + PROF_LOG_HEADER_BYTES as u64
            + (active * PROF_HALF_RECORDS * PROF_RECORD_BYTES) as u64;
        let slot = (0..PROF_HALF_RECORDS)
            .map(|i| hb + (i * PROF_RECORD_BYTES) as u64)
            .find(|&off| p.read_u64(off) == 0)
            .expect("active half must have a free slot");
        // Forge an ALLOC record naming an address that holds no live block.
        p.write_u64(slot + 8, 0xDEAD); // site
        p.write_u64(slot + 16, u64::MAX / 2); // seq newer than every real record
        p.write_u64(slot + 24, (1 << 40) | 64); // one crossing, 64 bytes
        p.write_u64(slot, (PROF_KIND_ALLOC << 56) | (layout.heap_base + 8));
        let rep = audit_pool(&p, &cfg);
        assert!(
            rep.violations.iter().any(|v| v.check == "prof_attribution"),
            "{:?}",
            rep.violations
        );
        assert_eq!(rep.prof_stale_records, 1);
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
