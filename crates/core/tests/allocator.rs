//! End-to-end tests of the NVAlloc front end: allocation correctness,
//! multi-threading, morphing under fragmentation, recovery, and crash
//! injection.

use std::collections::HashMap;
use std::sync::Arc;

use nvalloc::api::PmAllocator;
use nvalloc::{NvAllocator, NvConfig, PmError};
use nvalloc_pmem::{CrashImage, LatencyMode, PmemConfig, PmemPool};

fn pool(bytes: usize) -> Arc<PmemPool> {
    PmemPool::new(PmemConfig::default().pool_size(bytes).latency_mode(LatencyMode::Off))
}

fn crash_pool(bytes: usize) -> Arc<PmemPool> {
    PmemPool::new(
        PmemConfig::default().pool_size(bytes).latency_mode(LatencyMode::Off).crash_tracking(true),
    )
}

fn mk(cfg: NvConfig, bytes: usize) -> (Arc<PmemPool>, NvAllocator) {
    let p = pool(bytes);
    let a = NvAllocator::create(Arc::clone(&p), cfg).expect("create");
    (p, a)
}

#[test]
fn small_alloc_free_roundtrip() {
    let (p, a) = mk(NvConfig::log(), 32 << 20);
    let mut t = a.thread();
    let root = a.root_offset(0);
    let addr = t.malloc_to(100, root).unwrap();
    assert_eq!(p.read_u64(root), addr);
    assert!(a.live_bytes() >= 100);
    t.free_from(root).unwrap();
    assert_eq!(p.read_u64(root), 0);
    assert_eq!(a.live_bytes(), 0);
}

#[test]
fn zero_size_and_bad_dest_rejected() {
    let (_, a) = mk(NvConfig::log(), 32 << 20);
    let mut t = a.thread();
    assert!(matches!(t.malloc_to(0, a.root_offset(0)), Err(PmError::InvalidRequest(_))));
    assert!(matches!(t.malloc_to(64, 3), Err(PmError::InvalidRequest(_))));
    assert!(matches!(t.malloc_to(64, u64::MAX - 7), Err(PmError::InvalidRequest(_))));
}

/// A root slot is user data: a garbage pointer in it, even one past the
/// radix tree's 2^45-byte coverage, is "not allocated", never a panic.
#[test]
fn garbage_pointers_are_not_allocated() {
    let (p, a) = mk(NvConfig::log(), 32 << 20);
    let mut t = a.thread();
    let root = a.root_offset(0);
    for garbage in [0xDEAD_BEEF_0000_0000, 1 << 45, u64::MAX - 7] {
        p.write_u64(root, garbage);
        assert!(matches!(t.free_from(root), Err(PmError::NotAllocated)), "{garbage:#x}");
        assert_eq!(a.usable_size(garbage), None, "{garbage:#x}");
    }
    // Addresses inside a live allocation are not its base: `None` and a
    // refused free for a small block and for an extent alike, which is
    // what lets a caller vouch for a stored pointer with this call. An
    // extent's interior and last pages miss in the rtree, which holds only
    // its base page.
    let other = a.root_offset(1);
    for size in [100usize, 40_000] {
        let block = t.malloc_to(size, root).unwrap();
        let granted = a.usable_size(block).expect("live base") as u64;
        assert!(granted >= size as u64);
        let mut offsets = vec![8, 4096.min(granted / 2), granted - 8];
        if granted > 4096 {
            offsets.extend([4096, 4096 + 8, granted - 4096, granted - 4096 + 8]);
        }
        for interior in offsets.into_iter().map(|o| block + o) {
            let at = format!("{size} B at {block:#x}: {interior:#x}");
            assert_eq!(a.usable_size(interior), None, "{at}");
            p.write_u64(other, interior);
            assert!(matches!(t.free_from(other), Err(PmError::NotAllocated)), "{at}");
        }
        assert_eq!(a.usable_size(block), Some(granted as usize), "refused frees left it live");
        t.free_from(root).unwrap();
    }
}

#[test]
fn double_free_detected() {
    let (_, a) = mk(NvConfig::log(), 32 << 20);
    let mut t = a.thread();
    let root = a.root_offset(0);
    t.malloc_to(64, root).unwrap();
    t.free_from(root).unwrap();
    assert!(matches!(t.free_from(root), Err(PmError::NotAllocated)));
}

#[test]
fn allocations_do_not_overlap() {
    let (_, a) = mk(NvConfig::log(), 64 << 20);
    let mut t = a.thread();
    let mut ranges: Vec<(u64, u64)> = Vec::new();
    let sizes = [8usize, 24, 64, 100, 112, 250, 600, 1024, 4096, 10_000, 16_384, 40_000, 200_000];
    for (i, &sz) in sizes.iter().cycle().take(300).enumerate() {
        let root = a.root_offset(i);
        let addr = t.malloc_to(sz, root).unwrap();
        let end = addr + sz as u64;
        for &(s, e) in &ranges {
            assert!(end <= s || addr >= e, "overlap: [{addr:#x},{end:#x}) vs [{s:#x},{e:#x})");
        }
        ranges.push((addr, end));
    }
}

#[test]
fn data_survives_between_neighbours() {
    // Write a pattern into each block; neighbours must not clobber it.
    let (p, a) = mk(NvConfig::log(), 32 << 20);
    let mut t = a.thread();
    let mut blocks = Vec::new();
    for i in 0..200usize {
        let root = a.root_offset(i);
        let addr = t.malloc_to(64, root).unwrap();
        p.write_u64(addr, 0xA5A5_0000 + i as u64);
        blocks.push(addr);
    }
    for (i, &addr) in blocks.iter().enumerate() {
        assert_eq!(p.read_u64(addr), 0xA5A5_0000 + i as u64);
    }
}

#[test]
fn large_alloc_free_roundtrip() {
    let (p, a) = mk(NvConfig::log(), 64 << 20);
    let mut t = a.thread();
    let root = a.root_offset(0);
    let addr = t.malloc_to(300 << 10, root).unwrap();
    assert_eq!(p.read_u64(root), addr);
    t.free_from(root).unwrap();
    // Huge (> 2 MB) path too.
    let addr2 = t.malloc_to(3 << 20, root).unwrap();
    assert_eq!(addr2 % 4096, 0);
    t.free_from(root).unwrap();
}

#[test]
fn freed_memory_is_reused() {
    let (_, a) = mk(NvConfig::log(), 32 << 20);
    let mut t = a.thread();
    let root = a.root_offset(0);
    // Exercise churn far beyond the pool size: 20k x 1 KB = 20 MB turned
    // over within a 32 MB pool.
    for _ in 0..20_000 {
        t.malloc_to(1024, root).unwrap();
        t.free_from(root).unwrap();
    }
}

#[test]
fn gc_variant_basic_ops() {
    let (p, a) = mk(NvConfig::gc(), 32 << 20);
    let mut t = a.thread();
    let root = a.root_offset(0);
    let addr = t.malloc_to(128, root).unwrap();
    assert_eq!(p.read_u64(root), addr);
    t.free_from(root).unwrap();
    // GC small path must not flush at runtime.
    p.stats().reset();
    t.malloc_to(128, root).unwrap();
    let s = p.stats().snapshot();
    assert_eq!(s.flushes, 0, "GC small allocations must not flush");
    t.free_from(root).unwrap();
}

#[test]
fn log_variant_flushes_wal_and_meta() {
    let (p, a) = mk(NvConfig::log(), 32 << 20);
    let mut t = a.thread();
    let root = a.root_offset(0);
    // Warm the tcache first.
    t.malloc_to(128, root).unwrap();
    t.free_from(root).unwrap();
    p.stats().reset();
    t.malloc_to(128, root).unwrap();
    let s = p.stats().snapshot();
    assert!(s.flushes_of(nvalloc_pmem::FlushKind::Wal) >= 1);
    assert!(s.flushes_of(nvalloc_pmem::FlushKind::Meta) >= 1, "bitmap");
    assert!(s.flushes_of(nvalloc_pmem::FlushKind::Data) >= 1, "dest install");
}

#[test]
fn multithreaded_stress_no_overlap() {
    let (p, a) = mk(NvConfig::log().arenas(4), 128 << 20);
    let nthreads = 8;
    let per = 500;
    std::thread::scope(|s| {
        for k in 0..nthreads {
            let a = a.clone();
            let p = Arc::clone(&p);
            s.spawn(move || {
                let mut t = a.thread();
                let mut mine = Vec::new();
                for i in 0..per {
                    let slot = k * per + i;
                    let root = a.root_offset(slot);
                    let sz = 16 + (i * 37) % 2000;
                    let addr = t.malloc_to(sz, root).unwrap();
                    p.write_u64(addr, (k * per + i) as u64 | 1 << 62);
                    mine.push((root, addr, slot));
                    if i % 3 == 0 {
                        let (root, _, _) = mine.remove(0);
                        t.free_from(root).unwrap();
                    }
                }
                // Verify our tags survived.
                for (_, addr, slot) in &mine {
                    assert_eq!(p.read_u64(*addr), *slot as u64 | 1 << 62);
                }
            });
        }
    });
}

#[test]
fn cross_thread_free() {
    // Larson-style: thread A allocates, thread B frees.
    let (_, a) = mk(NvConfig::log().arenas(2), 64 << 20);
    let mut ta = a.thread();
    let mut roots = Vec::new();
    for i in 0..300 {
        let root = a.root_offset(i);
        ta.malloc_to(64 + i % 512, root).unwrap();
        roots.push(root);
    }
    std::thread::scope(|s| {
        let a2 = a.clone();
        s.spawn(move || {
            let mut tb = a2.thread();
            for root in roots {
                tb.free_from(root).unwrap();
            }
        });
    });
    assert_eq!(a.live_bytes(), 0);
}

#[test]
fn morphing_reduces_memory_under_class_shift() {
    // W1-style: allocate many small, delete most, then allocate another
    // class. With morphing, mostly-empty slabs convert; memory stays lower.
    let run = |morphing: bool| {
        let cfg = NvConfig::log().morphing(morphing).arenas(1).roots(1 << 17);
        let (_, a) = mk(cfg, 256 << 20);
        let mut t = a.thread();
        let n = 40_000;
        for i in 0..n {
            t.malloc_to(100, a.root_offset(i)).unwrap();
        }
        // Delete 90 %.
        for i in 0..n {
            if i % 10 != 0 {
                t.free_from(a.root_offset(i)).unwrap();
            }
        }
        // Allocate a different class: enough volume that, without
        // morphing, fresh slabs overflow into new regions.
        for i in 0..n {
            t.malloc_to(130, a.root_offset(n + i)).unwrap();
        }
        a.heap_mapped_bytes()
    };
    let with = run(true);
    let without = run(false);
    assert!(with < without, "morphing should reduce mapped bytes: with={with} without={without}");
}

#[test]
fn exit_and_recover_normal_shutdown() {
    for cfg in [NvConfig::log(), NvConfig::gc()] {
        let p = crash_pool(64 << 20);
        let a = NvAllocator::create(Arc::clone(&p), cfg.clone()).unwrap();
        let mut t = a.thread();
        let mut expect: HashMap<usize, u64> = HashMap::new();
        for i in 0..500usize {
            let sz = if i % 7 == 0 { 40 << 10 } else { 32 + i % 900 };
            let addr = t.malloc_to(sz, a.root_offset(i)).unwrap();
            p.write_u64(addr, i as u64 + 1000);
            p.flush(t.pm_mut(), addr, 8, nvalloc_pmem::FlushKind::Data);
            expect.insert(i, addr);
        }
        for i in (0..500).step_by(3) {
            t.free_from(a.root_offset(i)).unwrap();
            expect.remove(&i);
        }
        drop(t);
        a.exit();

        let reboot = PmemPool::from_crash_image(p.clean_shutdown_image());
        let (a2, report) = NvAllocator::recover(Arc::clone(&reboot), cfg.clone()).unwrap();
        assert!(report.normal_shutdown);
        assert!(report.slabs > 0);
        let mut t2 = a2.thread();
        // All surviving objects readable with intact contents and freeable.
        for (&i, &addr) in &expect {
            assert_eq!(reboot.read_u64(a2.root_offset(i)), addr);
            assert_eq!(reboot.read_u64(addr), i as u64 + 1000, "payload of {i} corrupt");
            t2.free_from(a2.root_offset(i)).unwrap();
        }
        // And the allocator still works.
        let addr = t2.malloc_to(256, a2.root_offset(0)).unwrap();
        assert_ne!(addr, 0);
    }
}

fn crash_image_mid_run(cfg: NvConfig, ops: usize) -> (CrashImage, HashMap<usize, u64>) {
    let p = crash_pool(64 << 20);
    let a = NvAllocator::create(Arc::clone(&p), cfg).unwrap();
    let mut t = a.thread();
    let mut live: HashMap<usize, u64> = HashMap::new();
    for i in 0..ops {
        let slot = i % 256;
        let root = a.root_offset(slot);
        if let std::collections::hash_map::Entry::Vacant(e) = live.entry(slot) {
            let sz = if i % 13 == 0 { 100 << 10 } else { 24 + (i * 11) % 1500 };
            let addr = t.malloc_to(sz, root).unwrap();
            // Persist a payload tag like a real application would.
            p.write_u64(addr, slot as u64 | 0xBEEF_0000_0000);
            p.flush(t.pm_mut(), addr, 8, nvalloc_pmem::FlushKind::Data);
            p.fence(t.pm_mut());
            e.insert(addr);
        } else {
            t.free_from(root).unwrap();
            live.remove(&slot);
        }
    }
    (p.crash(), live)
}

#[test]
fn crash_recovery_log_variant_preserves_live_data() {
    let (img, live) = crash_image_mid_run(NvConfig::log(), 2000);
    let reboot = PmemPool::from_crash_image(img);
    let (a, report) = NvAllocator::recover(Arc::clone(&reboot), NvConfig::log()).unwrap();
    assert!(!report.normal_shutdown);
    let mut t = a.thread();
    // LOG variant: every committed allocation is present and intact.
    for (&slot, &addr) in &live {
        assert_eq!(reboot.read_u64(a.root_offset(slot)), addr, "root {slot} lost");
        assert_eq!(reboot.read_u64(addr), slot as u64 | 0xBEEF_0000_0000);
        t.free_from(a.root_offset(slot)).unwrap();
    }
    assert_eq!(a.live_bytes(), 0, "no leaked bytes after freeing everything");
}

#[test]
fn crash_recovery_log_variant_allows_reallocation_of_everything() {
    // After recovery + freeing all live objects, the heap must be able to
    // serve the same volume again (no permanent leaks).
    let (img, live) = crash_image_mid_run(NvConfig::log(), 3000);
    let reboot = PmemPool::from_crash_image(img);
    let (a, _) = NvAllocator::recover(Arc::clone(&reboot), NvConfig::log()).unwrap();
    let mut t = a.thread();
    for &slot in live.keys() {
        t.free_from(a.root_offset(slot)).unwrap();
    }
    for i in 0..2000usize {
        let root = a.root_offset(i % 256);
        if reboot.read_u64(root) != 0 {
            t.free_from(root).unwrap();
        }
        t.malloc_to(64 + i % 1024, root).unwrap();
    }
}

#[test]
fn crash_recovery_gc_variant_collects_garbage() {
    // GC variant: unflushed dest writes may be lost; after recovery the
    // reachable set is exactly what the roots (persisted by app fences)
    // point at, and everything else is collectable.
    let p = crash_pool(64 << 20);
    let a = NvAllocator::create(Arc::clone(&p), NvConfig::gc()).unwrap();
    let mut t = a.thread();
    let mut live: HashMap<usize, u64> = HashMap::new();
    for i in 0..400usize {
        let root = a.root_offset(i);
        let addr = t.malloc_to(64 + i % 700, root).unwrap();
        // The *application* persists its root pointers (GC-model contract).
        p.flush(t.pm_mut(), root, 8, nvalloc_pmem::FlushKind::Data);
        p.write_u64(addr, i as u64);
        p.flush(t.pm_mut(), addr, 8, nvalloc_pmem::FlushKind::Data);
        live.insert(i, addr);
    }
    // Drop half the roots (persisted) — those blocks become garbage.
    for i in (0..400).step_by(2) {
        let root = a.root_offset(i);
        p.write_u64(root, 0);
        p.flush(t.pm_mut(), root, 8, nvalloc_pmem::FlushKind::Data);
        live.remove(&i);
    }
    p.fence(t.pm_mut());

    let reboot = PmemPool::from_crash_image(p.crash());
    let (a2, report) = NvAllocator::recover(Arc::clone(&reboot), NvConfig::gc()).unwrap();
    assert!(!report.normal_shutdown);
    assert_eq!(report.gc_live_blocks, live.len(), "GC must mark exactly the root-reachable blocks");
    let mut t2 = a2.thread();
    for (&i, &addr) in &live {
        assert_eq!(reboot.read_u64(a2.root_offset(i)), addr);
        assert_eq!(reboot.read_u64(addr), i as u64);
        t2.free_from(a2.root_offset(i)).unwrap();
    }
}

#[test]
fn recover_unformatted_pool_fails() {
    let p = pool(16 << 20);
    assert!(matches!(NvAllocator::recover(p, NvConfig::log()), Err(PmError::Corrupt(_))));
}

#[test]
fn heap_exhaustion_is_reported_not_panicked() {
    let (_, a) = mk(NvConfig::log(), 16 << 20);
    let mut t = a.thread();
    let mut i = 0usize;
    loop {
        match t.malloc_to(1 << 20, a.root_offset(i)) {
            Ok(_) => i += 1,
            Err(PmError::OutOfMemory { .. }) => break,
            Err(e) => panic!("unexpected {e}"),
        }
        assert!(i < 1000);
    }
    // Frees make room again.
    t.free_from(a.root_offset(0)).unwrap();
    t.malloc_to(1 << 20, a.root_offset(0)).unwrap();
}

#[test]
fn interleaving_eliminates_reflushes_end_to_end() {
    let run = |cfg: NvConfig| {
        let p = PmemPool::new(
            PmemConfig::default().pool_size(64 << 20).latency_mode(LatencyMode::Virtual),
        );
        let a = NvAllocator::create(Arc::clone(&p), cfg).unwrap();
        let mut t = a.thread();
        // Warm up one slab + tcache. Destination slots are spread one
        // cache line apart so only allocator-induced traffic is measured.
        for i in 0..80 {
            t.malloc_to(64, a.root_offset(i * 8)).unwrap();
        }
        p.stats().reset();
        for i in 80..400 {
            t.malloc_to(64, a.root_offset(i * 8)).unwrap();
        }
        let s = p.stats().snapshot();
        s.reflush_pct()
    };
    let base = run(NvConfig::base());
    let full = run(NvConfig::log());
    assert!(base > 30.0, "Base config must reflush heavily ({base:.1}%)");
    assert!(full < 5.0, "NVAlloc-LOG must all but eliminate reflushes ({full:.1}%)");
}

#[test]
fn variant_tags() {
    let (_, log) = mk(NvConfig::log(), 16 << 20);
    assert_eq!(log.name(), "NVAlloc-LOG");
    assert_eq!(log.root_count(), NvConfig::log().roots);
    let (_, gc) = mk(NvConfig::gc(), 16 << 20);
    assert_eq!(gc.name(), "NVAlloc-GC");
}
