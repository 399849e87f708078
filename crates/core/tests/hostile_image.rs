//! Hostile pool images: a crashed NVAlloc-LOG image with one WAL-entry or
//! morph-header field changed. Recovery must return a typed error (WAL)
//! or reclaim the slab as a leak (morph header), and the doctor must
//! report the matching violation; neither may panic or read past the
//! record it was handed.

use std::sync::Arc;

use nvalloc::api::PmAllocator;
use nvalloc::doctor::audit_pool;
use nvalloc::{NvAllocator, NvConfig, PmError, SLAB_SIZE};
use nvalloc_pmem::{LatencyMode, PmOffset, PmemConfig, PmemPool};

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
    assert!(matches!(r, Err(PmError::Corrupt(_))), "{:?}", r.map(|(_, rep)| rep));
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

/// A crashed image holding a completed morph with live old-class blocks:
/// returns the image, the slab base and one surviving old block.
fn crashed_with_morphed_slab() -> (Arc<PmemPool>, NvConfig, PmOffset, PmOffset) {
    let cfg = NvConfig::log().arenas(1).roots(1 << 13);
    let p = crash_pool(64);
    let a = NvAllocator::create(Arc::clone(&p), cfg.clone()).unwrap();
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
        t.malloc_to(1200, a.root_offset(n + j)).unwrap();
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
    (img, cfg, slab, old_block)
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
    let (img, cfg, slab, old_block) = crashed_with_morphed_slab();
    img.write_u64(slab + 16, img.read_u64(slab + 16) + (1 << 32));
    assert_slab_reclaimed(img, cfg, old_block);
}

#[test]
fn morph_header_with_oversized_index_is_reclaimed() {
    let (img, cfg, slab, old_block) = crashed_with_morphed_slab();
    img.write_u64(slab + 8, img.read_u64(slab + 8) | 0xFFFF << 48);
    assert_slab_reclaimed(img, cfg, old_block);
}
