//! Targeted crash-recovery tests for slab morphing: synthesise the exact
//! persistent states a crash can leave at each `flag` step (§5.2) and
//! verify recovery rolls back (flags 1–2) or forward (flag 3), preserving
//! every live block.

use std::collections::HashMap;
use std::sync::Arc;

use nvalloc::api::{AllocThread, PmAllocator};
use nvalloc::doctor::audit_pool;
use nvalloc::{NvAllocator, NvConfig, SLAB_SIZE};
use nvalloc_pmem::{LatencyMode, PmemConfig, PmemPool};

fn crash_pool(mb: usize) -> Arc<PmemPool> {
    PmemPool::new(
        PmemConfig::default()
            .pool_size(mb << 20)
            .latency_mode(LatencyMode::Off)
            .crash_tracking(true),
    )
}

/// Drive the allocator into morphing naturally, crash right after, and
/// verify the `slab_in` state round-trips through recovery.
#[test]
fn crash_after_complete_morph_preserves_old_blocks() {
    let p = crash_pool(128);
    let cfg = NvConfig::log().arenas(1).roots(1 << 17);
    let a = NvAllocator::create(Arc::clone(&p), cfg.clone()).unwrap();
    let mut t = a.thread();

    // Fill one class, delete most, persist the survivors' payloads.
    let n = 4000usize;
    let mut survivors: HashMap<usize, u64> = HashMap::new();
    for i in 0..n {
        let addr = t.malloc_to(100, a.root_offset(i)).unwrap();
        if i % 25 == 0 {
            p.write_u64(addr + 8, i as u64 | 0x11AA << 32);
            p.flush(t.pm_mut(), addr + 8, 8, nvalloc_pmem::FlushKind::Data);
            survivors.insert(i, addr);
        }
    }
    for i in 0..n {
        if i % 25 != 0 {
            t.free_from(a.root_offset(i)).unwrap();
        }
    }
    // Trigger morphing by demanding another class.
    let mut extra = Vec::new();
    for j in 0..n {
        let addr = t.malloc_to(1200, a.root_offset(n + j)).unwrap();
        extra.push((n + j, addr));
        if j > 200 {
            break;
        }
    }
    p.fence(t.pm_mut());

    // Crash and recover.
    let img = PmemPool::from_crash_image(p.crash());
    let (a2, report) = NvAllocator::recover(Arc::clone(&img), cfg).unwrap();
    assert!(!report.normal_shutdown);
    let mut t2 = a2.thread();
    // Every pre-morph survivor is intact and freeable (the old-block path).
    for (&i, &addr) in &survivors {
        assert_eq!(img.read_u64(a2.root_offset(i)), addr, "root {i}");
        assert_eq!(img.read_u64(addr + 8), i as u64 | 0x11AA << 32, "payload {i}");
        t2.free_from(a2.root_offset(i)).unwrap();
    }
    // New-class blocks too.
    for (slot, addr) in extra {
        assert_eq!(img.read_u64(a2.root_offset(slot)), addr);
        t2.free_from(a2.root_offset(slot)).unwrap();
    }
    assert_eq!(a2.live_bytes(), 0);
}

/// Exercise morph + old-block frees + finalisation (`slab_after`) across a
/// crash: after the last old block dies the slab must recover as a regular
/// slab of the new class.
#[test]
fn crash_after_morph_finalisation() {
    let p = crash_pool(128);
    let cfg = NvConfig::log().arenas(1).roots(1 << 17);
    let a = NvAllocator::create(Arc::clone(&p), cfg.clone()).unwrap();
    let mut t = a.thread();
    let n = 4000usize;
    for i in 0..n {
        t.malloc_to(100, a.root_offset(i)).unwrap();
    }
    // Free everything except a handful, morph, then free the rest (driving
    // cnt_slab to zero → slab_after).
    for i in 0..n {
        if i % 100 != 0 {
            t.free_from(a.root_offset(i)).unwrap();
        }
    }
    for j in 0..150 {
        t.malloc_to(1200, a.root_offset(n + j)).unwrap();
    }
    for i in (0..n).step_by(100) {
        t.free_from(a.root_offset(i)).unwrap();
    }
    let img = PmemPool::from_crash_image(p.crash());
    let (a2, _) = NvAllocator::recover(Arc::clone(&img), cfg).unwrap();
    let mut t2 = a2.thread();
    for j in 0..150 {
        t2.free_from(a2.root_offset(n + j)).unwrap();
    }
    assert_eq!(a2.live_bytes(), 0);
    // The heap still serves both classes.
    t2.malloc_to(100, a2.root_offset(0)).unwrap();
    t2.malloc_to(1200, a2.root_offset(1)).unwrap();
}

/// Repeated morph/crash cycles keep the heap sound.
#[test]
fn morph_crash_cycles() {
    let cfg = NvConfig::log().arenas(1).roots(1 << 17).su_threshold(0.3);
    let mut image = {
        let p = crash_pool(128);
        let a = NvAllocator::create(Arc::clone(&p), cfg.clone()).unwrap();
        let mut t = a.thread();
        for i in 0..2000 {
            t.malloc_to(100, a.root_offset(i)).unwrap();
        }
        for i in 0..2000 {
            if i % 10 != 0 {
                t.free_from(a.root_offset(i)).unwrap();
            }
        }
        p.crash()
    };
    for round in 0..3 {
        let p = PmemPool::from_crash_image(image);
        let (a, _) = NvAllocator::recover(Arc::clone(&p), cfg.clone())
            .unwrap_or_else(|e| panic!("round {round}: {e}"));
        let mut t = a.thread();
        // Alternate demanded class per round to provoke fresh morphs.
        let size = [1200, 300, 2000][round];
        for j in 0..100 {
            t.malloc_to(size, a.root_offset(4000 + round * 200 + j)).unwrap();
        }
        // Old survivors from the very first life remain freeable.
        if round == 2 {
            for i in (0..2000).step_by(10) {
                t.free_from(a.root_offset(i)).unwrap();
            }
        }
        image = p.crash();
    }
}

/// A heap holding one 100 B slab with 24 live blocks spread across it.
/// Every other block of the class is freed and returned from the thread
/// cache, so the next refill of another class morphs the slab.
struct SparseSlab {
    pool: Arc<PmemPool>,
    alloc: NvAllocator,
    thread: Box<dyn AllocThread>,
    slab: u64,
    /// The live blocks by root index.
    keep: Vec<(usize, u64)>,
}

fn slab_with_24_live_blocks(cfg: &NvConfig) -> SparseSlab {
    let pool = PmemPool::new(
        PmemConfig::default()
            .pool_size(16 << 20)
            .latency_mode(LatencyMode::Off)
            .crash_tracking(true)
            .pmsan(true),
    );
    let alloc = NvAllocator::create(Arc::clone(&pool), cfg.clone()).unwrap();
    let mut thread = alloc.thread();
    let blocks: Vec<u64> =
        (0..600).map(|i| thread.malloc_to(100, alloc.root_offset(i)).unwrap()).collect();
    let slab = blocks[0] & !(SLAB_SIZE as u64 - 1);
    let mut mine: Vec<(u64, usize)> = (0..blocks.len())
        .filter(|&i| blocks[i] & !(SLAB_SIZE as u64 - 1) == slab)
        .map(|i| (blocks[i], i))
        .collect();
    mine.sort_unstable();
    // Well clear of the slab header, which the morph rewrites.
    let keep: Vec<(usize, u64)> =
        mine.iter().skip(60).step_by(20).take(24).map(|&(addr, i)| (i, addr)).collect();
    assert_eq!(keep.len(), 24, "the slab holds {} blocks", mine.len());
    for i in 0..blocks.len() {
        if !keep.iter().any(|&(k, _)| k == i) {
            thread.free_from(alloc.root_offset(i)).unwrap();
        }
    }
    thread.flush_cache();
    SparseSlab { pool, alloc, thread, slab, keep }
}

/// Crash a slab morph at every flush. A 100 B slab holding 24 live blocks
/// morphs to 1200 B inside one `malloc_to`; whatever prefix of the
/// transform reached the media, recovery keeps all 24 blocks, stays
/// silent under the persist-ordering sanitizer, and leaves an image that
/// audits clean. One prefix ends inside step 1: the old-layout fields
/// persisted, the `OLD_SAVED` flag did not.
#[test]
fn morph_crashed_at_every_flush_keeps_its_live_blocks() {
    let cfg = NvConfig::log().arenas(1);
    let dest = 1000;
    let total = {
        let SparseSlab { pool, alloc, mut thread, slab, .. } = slab_with_24_live_blocks(&cfg);
        let f0 = pool.stats().flushes();
        let addr = thread.malloc_to(1200, alloc.root_offset(dest)).unwrap();
        assert_eq!(addr & !(SLAB_SIZE as u64 - 1), slab, "the malloc did not morph the slab");
        pool.stats().flushes() - f0
    };
    let mut torn_step1 = 0;
    for n in 0..=total {
        let SparseSlab { pool, alloc, mut thread, slab, keep } = slab_with_24_live_blocks(&cfg);
        pool.freeze_persistence_after(n);
        thread.malloc_to(1200, alloc.root_offset(dest)).unwrap();
        let img = PmemPool::from_crash_image(pool.crash());
        // Header word 0 holds the flag (bits 48..) and the class (bits
        // 32..), word 1 the old class (bits 32..).
        let (w0, w1) = (img.read_u64(slab), img.read_u64(slab + 8));
        if w0 >> 48 == 0 && (w0 >> 32) as u16 == (w1 >> 32) as u16 {
            torn_step1 += 1;
        }
        let (ra, _) = NvAllocator::recover(Arc::clone(&img), cfg.clone())
            .unwrap_or_else(|e| panic!("freeze={n}/{total}: {e}"));
        let back = keep.iter().filter(|&&(_, addr)| ra.usable_size(addr) == Some(112)).count();
        assert_eq!(back, 24, "freeze={n}/{total}: {back} of 24 live blocks recovered");
        for &(i, addr) in &keep {
            assert_eq!(img.read_u64(ra.root_offset(i)), addr, "freeze={n}/{total}: root {i}");
        }
        assert_eq!(img.pmsan_total(), 0, "freeze={n}/{total}: {:?}", img.pmsan_report());
        let rep = audit_pool(&img, &cfg);
        assert!(rep.clean(), "freeze={n}/{total}: {:?}", rep.violations);
    }
    assert_eq!(torn_step1, 1, "exactly one prefix ends inside step 1");
}
