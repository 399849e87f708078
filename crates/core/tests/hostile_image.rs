//! Hostile pool images: a valid image with one word changed. Recovery and
//! the doctor parse the image through the same readers, so they must
//! agree on every change: recovery refuses an image (`PmError::Corrupt`
//! naming the doctor's check, every byte left as it was) exactly when the
//! doctor reports a header or extent-inventory violation, reclaims a slab
//! whose header the doctor rejects, and otherwise leaves an image that
//! audits clean. Neither may panic, hang, or read past the record it was
//! handed.
//!
//! `seeded_mutator_agrees_with_the_doctor` replays 256 seeded one-word
//! changes over two images, then [`CHURN_CASES`] over an extent-churn
//! image. A failure prints its case index; set [`REPLAY`] to that index to
//! rerun only that case.

use std::sync::Arc;

use nvalloc::api::PmAllocator;
use nvalloc::doctor::{audit_pool, DoctorReport};
use nvalloc::internals::{
    CHUNK_BYTES, CHUNK_HEADER_BYTES, LOG_HEADER_BYTES, REGION_BYTES, WAL_ENTRY_BYTES,
};
use nvalloc::{NvAllocator, NvConfig, PmError, SLAB_SIZE};
use nvalloc_pmem::{CrashImage, LatencyMode, PmOffset, PmemConfig, PmemPool};

/// Run only this mutator case (its index as printed on failure).
const REPLAY: Option<usize> = None;

/// Mutator cases over the extent-churn image, after the 256 over the
/// other two sources.
const CHURN_CASES: usize = 32;

/// Checks under which recovery refuses the image: the header and the
/// extent inventory.
const REFUSALS: [&str; 9] = [
    "pool_magic",
    "pool_header",
    "layout",
    "booklog_chain",
    "region_table",
    "extent_span",
    "extent_size",
    "slab_extent",
    "extent_overlap",
];

/// Slab checks under which recovery reclaims the slab as a leak.
const RECLAIMS: [&str; 3] = ["slab_class", "slab_data_offset", "morph_index"];

fn crash_pool(mb: usize) -> Arc<PmemPool> {
    PmemPool::new(
        PmemConfig::default()
            .pool_size(mb << 20)
            .latency_mode(LatencyMode::Off)
            .crash_tracking(true),
    )
}

fn assert_violation(img: &PmemPool, cfg: &NvConfig, check: &str) {
    let rep = audit_pool(img, cfg);
    assert!(rep.violations.iter().any(|v| v.check == check), "{:?}", rep.violations);
}

/// The first header or inventory check the doctor reports.
fn refusal(rep: &DoctorReport) -> Option<&'static str> {
    rep.violations.iter().map(|v| v.check).find(|c| REFUSALS.contains(c))
}

fn fnv1a(words: &[u64]) -> u64 {
    words
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

/// Where one large shard's media structures live.
#[derive(Debug, Clone, Copy)]
struct Shard {
    heap_base: PmOffset,
    heap_end: PmOffset,
    booklog: PmOffset,
    region_table: PmOffset,
}

/// Where a formatted image's media structures live. It restates the
/// allocator's layout arithmetic for the pools this file builds and is
/// cross-checked against the live root offsets and the doctor's heap
/// size, so a layout change fails here loudly rather than aiming the
/// mutations at the wrong words.
#[derive(Debug, Clone)]
struct Map {
    wal: PmOffset,
    wal_bytes: u64,
    shards: Vec<Shard>,
}

fn map(pool: &PmemPool, cfg: &NvConfig, root0: PmOffset) -> Map {
    let up = |x: u64, a: u64| x.next_multiple_of(a);
    let (size, arenas) = (pool.size() as u64, cfg.arenas as u64);
    let rep = audit_pool(pool, cfg);
    assert!(rep.clean(), "the unmodified image must audit clean: {:?}", rep.violations);
    let n = rep.large_shards as u64;
    let roots = up(64 + arenas * 64, 64);
    assert_eq!(roots, root0, "root slots moved: update this map");
    let wal = up(roots + cfg.roots as u64 * 8, 64);
    let wal_bytes = arenas * 4096 * WAL_ENTRY_BYTES as u64;
    let table_bytes = n * (8 + 8 * (size / REGION_BYTES as u64 / n + 2));
    let table = up(wal + wal_bytes, 64);
    let booklog = up(table + table_bytes, 64);
    let booklog_bytes = (4u64 << 20).min(size / 4).max(64 << 10);
    let heap_base = up(booklog + booklog_bytes, SLAB_SIZE as u64);
    assert_eq!(size - heap_base, rep.heap_bytes, "heap moved: update this map");
    let span = (rep.heap_bytes / n) & !(SLAB_SIZE as u64 - 1);
    let shards = (0..n)
        .map(|i| Shard {
            heap_base: heap_base + i * span,
            heap_end: if i == n - 1 { size } else { heap_base + (i + 1) * span },
            booklog: booklog + i * ((booklog_bytes / n) & !4095),
            region_table: table + i * ((table_bytes / n) & !7),
        })
        .collect();
    Map { wal, wal_bytes, shards }
}

/// A booklog entry word: `[type:3 | addr>>12 :35 | size>>12 :26]`.
fn book_entry(addr: u64, size: u64, slab: bool) -> u64 {
    (if slab { 2 } else { 1 }) | (addr >> 12) << 3 | (size >> 12) << 38
}

/// The chunks of `shard`'s active booklog chain, in chain order.
fn chain(pool: &PmemPool, shard: &Shard) -> Vec<PmOffset> {
    let b = shard.booklog;
    let carved = pool.read_u64(b + 24);
    let mut link = pool.read_u64(b + 8 + (pool.read_u64(b) & 1) * 8);
    let mut out = Vec::new();
    while link != 0 && (out.len() as u64) < carved {
        let chunk = b + LOG_HEADER_BYTES as u64 + (link - 1) * CHUNK_BYTES as u64;
        out.push(chunk);
        link = pool.read_u64(chunk + 8);
    }
    out
}

/// Plant `word` in the first empty entry slot of `shard`'s head chunk.
fn plant(pool: &PmemPool, shard: &Shard, word: u64) {
    let head = chain(pool, shard)[0] + CHUNK_HEADER_BYTES as u64;
    let slot = (0..(CHUNK_BYTES - CHUNK_HEADER_BYTES) as u64 / 8)
        .map(|i| head + i * 8)
        .find(|&off| pool.read_u64(off) == 0)
        .expect("the head chunk has an empty slot");
    pool.write_u64(slot, word);
}

/// The in-place region-header slot describing the extent at `addr`.
fn region_slot(pool: &PmemPool, map: &Map, addr: PmOffset) -> PmOffset {
    map.shards
        .iter()
        .flat_map(|s| {
            let n = pool.read_u64(s.region_table);
            (1..=n).map(move |r| pool.read_u64(s.region_table + r * 8))
        })
        .flat_map(|region| (0..768u64).map(move |i| region + i * 16))
        .find(|&slot| pool.read_u64(slot) == addr && pool.read_u64(slot + 8) & 1 == 1)
        .expect("a live region-header slot names the extent")
}

/// A quiesced image: 32 small blocks in roots 0..32 and one 1 MiB extent
/// in root 40, after an orderly exit. Returns the image, its config and
/// map, and the small and large block addresses.
fn quiesced(cfg: NvConfig, mb: usize) -> (Arc<PmemPool>, NvConfig, Map, Vec<PmOffset>, PmOffset) {
    let cfg = cfg.roots(64);
    let p = PmemPool::new(PmemConfig::default().pool_size(mb << 20).latency_mode(LatencyMode::Off));
    let a = NvAllocator::create(Arc::clone(&p), cfg.clone()).expect("create");
    let mut t = a.thread();
    let small: Vec<PmOffset> = (0..32usize)
        .map(|i| t.malloc_to(64 + (i % 5) * 256, a.root_offset(i)).expect("alloc"))
        .collect();
    let large = t.malloc_to(1 << 20, a.root_offset(40)).expect("large alloc");
    drop(t);
    a.exit();
    let m = map(&p, &cfg, a.root_offset(0));
    (p, cfg, m, small, large)
}

/// Recover `img` and require that it is refused with `check` and left
/// byte-identical.
fn assert_refused(img: Arc<PmemPool>, cfg: &NvConfig, check: &str) {
    assert_violation(&img, cfg, check);
    let before = img.clean_shutdown_image();
    match NvAllocator::recover(Arc::clone(&img), cfg.clone()) {
        Err(PmError::Corrupt(got)) => assert_eq!(got, check),
        r => panic!("expected Corrupt({check}), got {:?}", r.map(|(_, rep)| rep)),
    }
    assert!(img.clean_shutdown_image().words() == before.words(), "refused image was written");
}

/// Recover, allocate 64 small blocks and eight 1 MiB extents, exit, and
/// require a clean audit. Returns the recovered allocator's view of
/// `probe` (its usable size right after recovery) and the leak count.
fn assert_clean_after(
    img: &Arc<PmemPool>,
    cfg: &NvConfig,
    probe: PmOffset,
) -> (Option<usize>, usize) {
    let (a, report) = NvAllocator::recover(Arc::clone(img), cfg.clone()).expect("recover");
    let seen = a.usable_size(probe);
    let mut t = a.thread();
    for i in 0..72usize {
        let size = if i < 64 { 48 + i * 40 } else { 1 << 20 };
        t.malloc_to(size, a.root_offset(48 + i % 16)).expect("alloc after recovery");
    }
    drop(t);
    a.exit();
    let rep = audit_pool(img, cfg);
    assert!(rep.clean(), "{:?}", rep.violations);
    (seen, report.leaks_fixed)
}

/// The slab whose header the doctor rejects is reclaimed, never kept,
/// and the image audits clean afterwards.
fn assert_slab_row(img: Arc<PmemPool>, cfg: &NvConfig, block: PmOffset, check: &str) {
    assert_violation(&img, cfg, check);
    assert!(refusal(&audit_pool(&img, cfg)).is_none());
    let (seen, leaks) = assert_clean_after(&img, cfg, block);
    assert_eq!(seen, None, "the rejected slab must be reclaimed");
    assert!(leaks >= 1);
}

// ----- one test per corruption row -----

#[test]
fn row01_in_place_region_count_overflows_its_table() {
    let (img, cfg, m, _, _) = quiesced(NvConfig::base(), 96);
    img.write_u64(m.shards[0].region_table, 1 << 40);
    assert_refused(img, &cfg, "region_table");
}

#[test]
fn row02_in_place_region_header_past_the_pool() {
    let (img, cfg, m, _, _) = quiesced(NvConfig::base(), 96);
    let shard = m.shards.iter().find(|s| img.read_u64(s.region_table) > 0).expect("a region");
    img.write_u64(shard.region_table + 8, img.size() as u64);
    assert_refused(img, &cfg, "region_table");
}

#[test]
fn row03_booklog_extent_past_the_pool_end() {
    let (img, cfg, m, _, _) = quiesced(NvConfig::log(), 96);
    let past = (img.size() as u64 + (4 << 20)) & !4095;
    plant(&img, &m.shards[0], book_entry(past, 4096, false));
    assert_refused(img, &cfg, "extent_span");
}

#[test]
fn row04_booklog_extent_beyond_rtree_coverage() {
    let (img, cfg, m, _, _) = quiesced(NvConfig::log(), 96);
    plant(&img, &m.shards[0], book_entry(1 << 46, 4096, false));
    assert_refused(img, &cfg, "extent_span");
}

#[test]
fn row05_booklog_extent_overlapping_a_live_extent() {
    let (img, cfg, m, _, large) = quiesced(NvConfig::log(), 96);
    let shard = m.shards.iter().find(|s| (s.heap_base..s.heap_end).contains(&large)).unwrap();
    plant(&img, shard, book_entry(large + 4096, 4096, false));
    assert_refused(img, &cfg, "extent_overlap");
}

#[test]
fn row06_slab_data_offset_inside_its_bitmap() {
    let (img, cfg, _, small, _) = quiesced(NvConfig::log(), 96);
    let slab = small[1] & !(SLAB_SIZE as u64 - 1);
    img.write_u64(slab + 8, img.read_u64(slab + 8) & !0xffff_ffff | 64);
    assert_slab_row(img, &cfg, small[1], "slab_data_offset");
}

/// A wrong arena count, and a non-zero word 24: older images kept the
/// profiler's sampling period there and reserved a region for it below
/// the heap, so their heap does not start where this layout puts it.
#[test]
fn row07_pool_header_arena_count() {
    for (word, value) in [(8, 1000), (24, 4096)] {
        let (img, cfg, _, _, _) = quiesced(NvConfig::log(), 96);
        img.write_u64(word, value);
        assert_refused(img, &cfg, "pool_header");
    }
}

#[test]
fn row08_booklog_carve_mark_and_head_out_of_range() {
    let (img, cfg, m, _, _) = quiesced(NvConfig::log(), 96);
    let b = m.shards[0].booklog;
    img.write_u64(b + 24, u32::MAX as u64);
    img.write_u64(b + 8 + (img.read_u64(b) & 1) * 8, 3_000_000);
    assert_refused(img, &cfg, "booklog_chain");
}

#[test]
fn booklog_chain_cycle_is_refused() {
    let (img, cfg, m, _, _) = quiesced(NvConfig::log(), 96);
    let s = m.shards[0];
    let head = chain(&img, &s)[0];
    let id = (head - s.booklog - LOG_HEADER_BYTES as u64) / CHUNK_BYTES as u64;
    img.write_u64(head + 8, id + 1);
    assert_refused(img, &cfg, "booklog_chain");
}

#[test]
fn row09_slab_class_out_of_range() {
    let (img, cfg, _, small, _) = quiesced(NvConfig::log(), 96);
    let slab = small[1] & !(SLAB_SIZE as u64 - 1);
    img.write_u64(slab, img.read_u64(slab) & !(0xffff << 32) | 999 << 32);
    assert_slab_row(img, &cfg, small[1], "slab_class");
}

#[test]
fn row10_slab_entry_straddling_its_shard_end() {
    let (img, cfg, m, _, _) = quiesced(NvConfig::log(), 96);
    let s = m.shards[0];
    plant(&img, &s, book_entry(s.heap_end - (SLAB_SIZE as u64 / 2), SLAB_SIZE as u64, true));
    assert_refused(img, &cfg, "extent_span");
}

#[test]
fn row11_in_place_slot_size_past_the_shard() {
    let (img, cfg, m, _, large) = quiesced(NvConfig::base(), 96);
    let slot = region_slot(&img, &m, large);
    img.write_u64(slot + 8, img.read_u64(slot + 8) & 0xff | (1 << 40) << 8);
    assert_refused(img, &cfg, "extent_span");
}

// ----- booklog tombstones that name no live entry -----

/// A booklog tombstone: `[type:3 | chunk:22 | slot:7 | epoch:32]`.
fn tombstone(chunk: u64, slot: u64, epoch: u64) -> u64 {
    3 | chunk << 3 | slot << 25 | epoch << 32
}

/// The id and epoch of the chunk at `chunk` in `shard`'s log.
fn chunk_id_epoch(pool: &PmemPool, shard: &Shard, chunk: PmOffset) -> (u64, u64) {
    let id = (chunk - shard.booklog - LOG_HEADER_BYTES as u64) / CHUNK_BYTES as u64;
    (id, pool.read_u64(chunk) >> 32)
}

/// The live objects recovery finds in `img`, which must audit clean.
fn recovered_objects(img: Arc<PmemPool>, cfg: &NvConfig) -> Vec<(PmOffset, usize)> {
    let rep = audit_pool(&img, cfg);
    assert!(rep.clean(), "{:?}", rep.violations);
    let (a, _) = NvAllocator::recover(img, cfg.clone()).expect("recover");
    let mut objects = a.objects();
    objects.sort_unstable();
    objects
}

/// Plant the tombstone `tomb` picks (given the image, its map and the
/// 1 MiB extent's address) and require that it cancels nothing: the
/// doctor and recovery see exactly the objects of the image without it.
fn assert_tombstone_ignored(tomb: impl Fn(&PmemPool, &Map, PmOffset) -> (Shard, u64)) {
    let (img, cfg, m, _, large) = quiesced(NvConfig::log(), 96);
    let copy = || PmemPool::from_crash_image(img.clean_shutdown_image());
    let want = recovered_objects(copy(), &cfg);
    assert!(want.contains(&(large, 1 << 20)));
    let hostile = copy();
    let (shard, word) = tomb(&hostile, &m, large);
    plant(&hostile, &shard, word);
    assert_eq!(recovered_objects(hostile, &cfg), want);
}

#[test]
fn tombstone_naming_a_chunk_past_the_carve_mark_is_ignored() {
    // The chunk at the mark, and the largest id the 22-bit field holds.
    for past in [0, (1 << 22) - 1] {
        assert_tombstone_ignored(|pool, m, _| {
            let s = m.shards[0];
            let chunk = pool.read_u64(s.booklog + 24).max(past);
            let (_, epoch) = chunk_id_epoch(pool, &s, chain(pool, &s)[0]);
            (s, tombstone(chunk, 0, epoch))
        });
    }
}

#[test]
fn tombstone_naming_a_carved_chunk_off_the_chain_is_ignored() {
    assert_tombstone_ignored(|pool, m, _| {
        // Raise the carve mark by one: that chunk is carved, unchained.
        let s = m.shards[0];
        let carved = pool.read_u64(s.booklog + 24);
        pool.write_u64(s.booklog + 24, carved + 1);
        (s, tombstone(carved, 0, 0))
    });
}

#[test]
fn tombstone_with_a_stale_epoch_is_ignored() {
    assert_tombstone_ignored(|pool, m, large| {
        // Name the 1 MiB extent's own entry, one epoch back.
        let word = book_entry(large, 1 << 20, false);
        let (s, chunk, slot) = m
            .shards
            .iter()
            .flat_map(|s| chain(pool, s).into_iter().map(move |c| (*s, c)))
            .flat_map(|(s, c)| {
                (0..(CHUNK_BYTES - CHUNK_HEADER_BYTES) as u64 / 8).map(move |i| (s, c, i))
            })
            .find(|&(_, c, i)| pool.read_u64(c + CHUNK_HEADER_BYTES as u64 + i * 8) == word)
            .expect("the extent has a booklog entry");
        let (id, epoch) = chunk_id_epoch(pool, &s, chunk);
        (s, tombstone(id, slot, epoch - 1))
    });
}

// ----- WAL entries and morph index tables -----

/// A crashed image whose one WAL entry records a 64 B allocation into
/// root 0, plus the offset of that entry's 32 B slot.
fn crashed_with_wal_entry() -> (Arc<PmemPool>, NvConfig, PmOffset) {
    let cfg = NvConfig::log().roots(64);
    let p = crash_pool(64);
    let a = NvAllocator::create(Arc::clone(&p), cfg.clone()).unwrap();
    let mut t = a.thread();
    let root = a.root_offset(0);
    let addr = t.malloc_to(64, root).unwrap();
    let img = PmemPool::from_crash_image(p.crash());
    assert!(audit_pool(&img, &cfg).clean(), "the unmodified image must audit clean");
    let entry = (0..img.size() as u64 / 32)
        .map(|i| i * 32)
        .find(|&off| {
            img.read_u64(off) == addr
                && img.read_u64(off + 8) == root
                && img.read_u64(off + 16) & 0xff == 1
        })
        .expect("the allocation's WAL entry");
    (img, cfg, entry)
}

fn assert_wal_rejected(img: Arc<PmemPool>, cfg: NvConfig) {
    assert_violation(&img, &cfg, "wal_bounds");
    let r = NvAllocator::recover(img, cfg);
    assert!(matches!(r, Err(PmError::Corrupt("wal_bounds"))), "{:?}", r.map(|(_, rep)| rep));
}

#[test]
fn wal_entry_with_unaligned_dest_is_rejected() {
    let (img, cfg, entry) = crashed_with_wal_entry();
    img.write_u64(entry + 8, img.read_u64(entry + 8) + 4);
    assert_wal_rejected(img, cfg);
}

#[test]
fn wal_entry_with_dest_past_pool_end_is_rejected() {
    let (img, cfg, entry) = crashed_with_wal_entry();
    img.write_u64(entry + 8, img.size() as u64);
    assert_wal_rejected(img, cfg);
}

#[test]
fn wal_entry_with_wild_addr_is_rejected() {
    let (img, cfg, entry) = crashed_with_wal_entry();
    img.write_u64(entry, u64::MAX - 3);
    assert_wal_rejected(img, cfg);
}

/// A crashed image holding a completed morph with live old-class blocks.
struct Morphed {
    img: Arc<PmemPool>,
    cfg: NvConfig,
    /// The morphed slab's base and one of its surviving old blocks.
    slab: PmOffset,
    old_block: PmOffset,
    /// Every surviving block.
    survivors: Vec<PmOffset>,
    root0: PmOffset,
}

fn crashed_with_morphed_slab(mb: usize) -> Morphed {
    let cfg = NvConfig::log().arenas(1).roots(1 << 13);
    let p = crash_pool(mb);
    let a = NvAllocator::create(Arc::clone(&p), cfg.clone()).unwrap();
    let root0 = a.root_offset(0);
    let mut t = a.thread();
    let n = 2000usize;
    let mut survivors = Vec::new();
    for i in 0..n {
        let addr = t.malloc_to(100, a.root_offset(i)).unwrap();
        if i % 25 == 0 {
            survivors.push(addr);
        }
    }
    for i in (0..n).filter(|i| i % 25 != 0) {
        t.free_from(a.root_offset(i)).unwrap();
    }
    // Demand another class so a sparse slab morphs.
    for j in 0..200 {
        survivors.push(t.malloc_to(1200, a.root_offset(n + j)).unwrap());
    }
    let img = PmemPool::from_crash_image(p.crash());
    assert!(audit_pool(&img, &cfg).clean(), "the unmodified image must audit clean");
    let (slab, old_block) = survivors
        .iter()
        .map(|&addr| (addr & !(SLAB_SIZE as u64 - 1), addr))
        .find(|&(slab, _)| {
            let w1 = img.read_u64(slab + 8);
            (w1 >> 32) as u16 != u16::MAX && w1 >> 48 > 0 && img.read_u64(slab) >> 48 == 0
        })
        .expect("a settled morphed slab with live old blocks");
    Morphed { img, cfg, slab, old_block, survivors, root0 }
}

fn assert_slab_reclaimed(img: Arc<PmemPool>, cfg: NvConfig, old_block: PmOffset) {
    assert_violation(&img, &cfg, "morph_index");
    let (a, report) = NvAllocator::recover(Arc::clone(&img), cfg.clone()).expect("recover");
    assert!(report.leaks_fixed >= 1, "{report:?}");
    assert_eq!(a.usable_size(old_block), None, "the untrusted slab must be reclaimed");
    a.exit();
    let rep = audit_pool(&img, &cfg);
    assert!(rep.clean(), "{:?}", rep.violations);
}

#[test]
fn morph_header_with_odd_index_table_is_reclaimed() {
    let Morphed { img, cfg, slab, old_block, .. } = crashed_with_morphed_slab(64);
    img.write_u64(slab + 16, img.read_u64(slab + 16) + (1 << 32));
    assert_slab_reclaimed(img, cfg, old_block);
}

#[test]
fn morph_header_with_oversized_index_is_reclaimed() {
    let Morphed { img, cfg, slab, old_block, .. } = crashed_with_morphed_slab(64);
    img.write_u64(slab + 8, img.read_u64(slab + 8) | 0xFFFF << 48);
    assert_slab_reclaimed(img, cfg, old_block);
}

#[test]
fn morph_entry_naming_a_block_past_the_slab_is_reclaimed() {
    let Morphed { img, cfg, slab, old_block, .. } = crashed_with_morphed_slab(64);
    let table = slab + (img.read_u64(slab + 16) >> 32);
    img.write_u16(table, img.read_u16(table) | 0x7fff);
    assert_slab_reclaimed(img, cfg, old_block);
}

#[test]
fn wal_entry_with_the_largest_seq_recovers() {
    let (img, cfg, entry) = crashed_with_wal_entry();
    img.write_u64(entry + 24, u64::MAX);
    let (a, _) = NvAllocator::recover(img, cfg).expect("recover");
    a.exit();
}

// ----- the doctor stays read-only -----

#[test]
fn doctor_writes_nothing() {
    let (crashed, crashed_cfg, _) = crashed_with_wal_entry();
    let morphed = crashed_with_morphed_slab(64);
    for (img, cfg) in [(crashed, crashed_cfg), (morphed.img, morphed.cfg)] {
        let state = |p: &PmemPool| {
            let s = p.stats().snapshot();
            (fnv1a(p.clean_shutdown_image().words()), s.flushes, s.fences)
        };
        let before = state(&img);
        audit_pool(&img, &cfg);
        assert_eq!(state(&img), before, "the audit wrote to the pool");
    }
}

// ----- the seeded mutator -----

/// SplitMix64: a fixed-seed generator for reproducible cases.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// What a mutated word belongs to, which decides what the case asserts.
#[derive(Debug, Clone, Copy)]
enum Target {
    /// Pool header, booklog header / chunk header / entry, region-table
    /// count / offset / slot: refusal agrees with the doctor by name, and
    /// an accepted image audits clean after recovery and exit.
    Inventory,
    /// A slab header word, or (`u16`) a morph index entry, of the slab
    /// holding this live block: a slab the doctor rejects is reclaimed.
    Slab(PmOffset, bool),
    /// A WAL entry word: recovery neither panics nor fails with anything
    /// but `Corrupt`.
    Log,
}

/// One mutation source: a valid image and the words worth changing, in
/// groups a case picks from evenly.
struct Source {
    name: &'static str,
    image: CrashImage,
    cfg: NvConfig,
    groups: Vec<Vec<(PmOffset, Target)>>,
}

fn pool_of(image: &CrashImage) -> Arc<PmemPool> {
    PmemPool::from_words(
        image.words().to_vec(),
        PmemConfig::default().latency_mode(LatencyMode::Off),
    )
}

/// Pool-header words plus every booklog header, chain chunk header and
/// live entry of the image's shards.
fn inventory_targets(pool: &PmemPool, m: &Map) -> Vec<(PmOffset, Target)> {
    let mut t: Vec<PmOffset> = vec![0, 8, 16, 24];
    for s in &m.shards {
        t.extend((0..4).map(|w| s.booklog + w * 8));
        for chunk in chain(pool, s) {
            t.extend([chunk, chunk + 8]);
            t.extend(
                (0..(CHUNK_BYTES - CHUNK_HEADER_BYTES) as u64 / 8)
                    .map(|i| chunk + CHUNK_HEADER_BYTES as u64 + i * 8)
                    .filter(|&off| pool.read_u64(off) != 0),
            );
        }
    }
    t.into_iter().map(|off| (off, Target::Inventory)).collect()
}

/// Header words of the slabs holding `blocks`, and every morph index
/// entry of a morphed one.
fn slab_targets(pool: &PmemPool, blocks: &[PmOffset]) -> Vec<(PmOffset, Target)> {
    let mut t = Vec::new();
    let mut seen = std::collections::BTreeSet::new();
    for &block in blocks {
        let slab = block & !(SLAB_SIZE as u64 - 1);
        if !seen.insert(slab) {
            continue;
        }
        t.extend((0..3).map(|w| (slab + w * 8, Target::Slab(block, false))));
        let w1 = pool.read_u64(slab + 8);
        if (w1 >> 32) as u16 != u16::MAX {
            let table = slab + (pool.read_u64(slab + 16) >> 32);
            t.extend((0..w1 >> 48).map(|i| (table + 2 * i, Target::Slab(block, true))));
        }
    }
    t
}

/// The 32 B slots of every non-empty WAL entry.
fn wal_targets(pool: &PmemPool, m: &Map) -> Vec<(PmOffset, Target)> {
    (m.wal..m.wal + m.wal_bytes)
        .step_by(WAL_ENTRY_BYTES)
        .filter(|&e| pool.read_u64(e + 16) & 0xff != 0)
        .flat_map(|e| (0..4).map(move |w| (e + w * 8, Target::Log)))
        .collect()
}

fn sources() -> Vec<Source> {
    // A crashed LOG image with a morphed slab.
    let Morphed { img, cfg, survivors, root0, .. } = crashed_with_morphed_slab(16);
    let m = map(&img, &cfg, root0);
    let groups =
        vec![inventory_targets(&img, &m), slab_targets(&img, &survivors), wal_targets(&img, &m)];
    let log = Source { name: "crashed LOG, morphed slab", image: img.crash(), cfg, groups };

    // A quiesced in-place image.
    let (img, cfg, m, small, _) = quiesced(NvConfig::base(), 32);
    let mut targets: Vec<(PmOffset, Target)> =
        [0, 8, 16, 24].into_iter().map(|off| (off, Target::Inventory)).collect();
    for s in &m.shards {
        let n = img.read_u64(s.region_table);
        for r in 0..=n {
            targets.push((s.region_table + r * 8, Target::Inventory));
        }
        for region in (1..=n).map(|r| img.read_u64(s.region_table + r * 8)) {
            let live =
                (0..768u64).map(|i| region + i * 16).filter(|&s| img.read_u64(s + 8) & 1 == 1);
            targets.extend(live.flat_map(|s| [(s, Target::Inventory), (s + 8, Target::Inventory)]));
        }
    }
    let groups = vec![targets, slab_targets(&img, &small)];
    let base = Source { name: "quiesced in-place", image: img.clean_shutdown_image(), cfg, groups };

    vec![log, base]
}

/// A crashed image of extent churn at the `NvConfig::log()` defaults on a
/// pool with several large shards: 16 KiB–4 MiB requests under a live cap
/// that overflows the home shard into the others, until booklog slow GC
/// has run, then frees that leave free gaps wider than a region. Its
/// targets are the extent inventory, so each case's booklog word reaches
/// recovery's bulk build of the free lists.
fn churn_source() -> Source {
    const SLOTS: usize = 256;
    const LIVE_CAP: usize = 14 << 20;
    let cfg = NvConfig::log();
    let p = crash_pool(40);
    let a = NvAllocator::create(Arc::clone(&p), cfg.clone()).unwrap();
    let mut t = a.thread();
    let mut rng = SplitMix(0xc40a_110c);
    let mut live = [0usize; SLOTS];
    let mut op = 0;
    while op < 2000 || a.metrics().booklog_alt_flips == 0 {
        let slot = rng.below(SLOTS);
        let shift = 14 + rng.below(8);
        let size = (1 << shift) + rng.below(1 << shift);
        if live[slot] > 0 {
            t.free_from(a.root_offset(slot)).unwrap();
            live[slot] = 0;
        } else if live.iter().sum::<usize>() + size <= LIVE_CAP {
            t.malloc_to(size, a.root_offset(slot)).unwrap();
            live[slot] = size;
        }
        op += 1;
        assert!(op < 50_000, "slow GC never ran");
    }
    for slot in (0..SLOTS).filter(|s| s % 6 != 0) {
        if live[slot] > 0 {
            t.free_from(a.root_offset(slot)).unwrap();
            live[slot] = 0;
        }
    }
    let img = PmemPool::from_crash_image(p.crash());
    let m = map(&img, &cfg, a.root_offset(0));
    assert_eq!(m.shards.len(), 4, "the default config shards this pool four ways");
    // Recovery lists the gaps from each shard's heap base up to its highest
    // live extent: one must be wider than a region.
    let mut extents: Vec<(PmOffset, u64)> = (0..SLOTS)
        .filter(|&s| live[s] > 0)
        .map(|s| (img.read_u64(a.root_offset(s)), live[s].next_multiple_of(4096) as u64))
        .chain(m.shards.iter().map(|s| (s.heap_base, 0)))
        .collect();
    extents.sort_unstable();
    let wide = extents.windows(2).any(|w| {
        let same = m.shards.iter().any(|s| s.heap_base <= w[0].0 && w[1].0 < s.heap_end);
        same && w[1].0 - (w[0].0 + w[0].1) > REGION_BYTES as u64
    });
    assert!(wide, "no free gap spans a region");
    let groups = vec![inventory_targets(&img, &m)];
    Source { name: "crashed LOG, extent churn", image: img.crash(), cfg, groups }
}

/// The new value for a word currently holding `old`.
fn mutate(rng: &mut SplitMix, old: u64) -> u64 {
    match rng.below(6) {
        0 => rng.next(),
        1 => old ^ 1 << rng.below(64),
        2 => 0,
        3 => old.wrapping_add(4096),
        4 => u64::MAX,
        _ => rng.below(8) as u64,
    }
}

/// Run one case: change the word at `off` and check what its target
/// demands.
fn run_case(src: &Source, off: PmOffset, target: Target, value: u64) {
    let img = pool_of(&src.image);
    match target {
        Target::Slab(_, true) => img.write_u16(off, value as u16),
        _ => img.write_u64(off, value),
    }
    let rep = audit_pool(&img, &src.cfg);
    let before = img.clean_shutdown_image();
    let recovered = NvAllocator::recover(Arc::clone(&img), src.cfg.clone());
    if let Err(e) = &recovered {
        let PmError::Corrupt(check) = e else { panic!("recover failed with {e}") };
        assert!(
            rep.violations.iter().any(|v| v.check == *check),
            "recovery refused with {check}, which the doctor did not report: {:?}",
            rep.violations
        );
        assert!(img.clean_shutdown_image().words() == before.words(), "refused image was written");
    }
    match target {
        Target::Inventory => {
            let refused = recovered.as_ref().err().map(|e| format!("{e}"));
            assert_eq!(
                refusal(&rep).is_some(),
                refused.is_some(),
                "doctor {:?} vs recovery {refused:?}",
                rep.violations
            );
            if let Ok((a, _)) = recovered {
                a.exit();
                let after = audit_pool(&img, &src.cfg);
                assert!(after.clean(), "accepted image audits dirty: {:?}", after.violations);
            }
        }
        Target::Slab(block, _) => {
            let (a, _) = recovered.expect("a slab header never refuses the image");
            let slab = block & !(SLAB_SIZE as u64 - 1);
            // Recovery settles a header left mid-morph before it
            // validates it, so only a settled header's verdict binds.
            let tag = format!("slab {slab:#x}:");
            let ours: Vec<_> =
                rep.violations.iter().filter(|v| v.detail.starts_with(&tag)).collect();
            let settled = !ours.iter().any(|v| v.detail.contains("mid-morph"));
            if settled && ours.iter().any(|v| RECLAIMS.contains(&v.check)) {
                assert_eq!(a.usable_size(block), None, "rejected slab {slab:#x} was kept");
            }
            a.exit();
        }
        Target::Log => {
            if let Ok((a, _)) = recovered {
                a.exit();
            }
        }
    }
}

/// Pick case `case`'s word and value from `src` and run it (unless
/// [`REPLAY`] names another case).
fn seeded_case(case: usize, src: &Source, rng: &mut SplitMix) {
    let group = &src.groups[rng.below(src.groups.len())];
    let (off, target) = group[rng.below(group.len())];
    let old = src.image.words()[off as usize / 8];
    let value = match target {
        Target::Slab(_, true) => mutate(rng, (old >> (off % 8 * 8)) & 0xffff),
        _ => mutate(rng, old),
    };
    if REPLAY.is_some_and(|r| r != case) {
        return;
    }
    println!("case {case}: {} word {off:#x} ({target:?}) := {value:#x}", src.name);
    run_case(src, off, target, value);
}

#[test]
fn seeded_mutator_agrees_with_the_doctor() {
    let sources = sources();
    let mut rng = SplitMix(0x5eed_0001_a11c);
    for case in 0..256 {
        let src = &sources[rng.below(sources.len())];
        seeded_case(case, src, &mut rng);
    }
    let churn = churn_source();
    for case in 256..256 + CHURN_CASES {
        seeded_case(case, &churn, &mut rng);
    }
}
