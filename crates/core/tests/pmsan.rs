//! End-to-end pmsan coverage: clean runs are violation-free across
//! variants, sanitizer-on runs measure identically to sanitizer-off
//! runs, quiesce defines a clean idle point, and crash-image
//! enumeration windows produce only recoverable images.

use std::sync::Arc;

use nvalloc::api::PmAllocator;
use nvalloc::doctor;
use nvalloc::{NvAllocator, NvConfig};
use nvalloc_pmem::{FlushKind, LatencyMode, PmemConfig, PmemPool};

fn san_pool(bytes: usize) -> Arc<PmemPool> {
    PmemPool::new(
        PmemConfig::default()
            .pool_size(bytes)
            .latency_mode(LatencyMode::Off)
            .crash_tracking(true)
            .pmsan(true),
    )
}

fn mk_san(cfg: NvConfig, bytes: usize) -> (Arc<PmemPool>, NvAllocator) {
    let p = san_pool(bytes);
    let a = NvAllocator::create(Arc::clone(&p), cfg).expect("create");
    (p, a)
}

/// A mixed small/large churn workload exercising slabs, the WAL (LOG
/// variant), the booklog, and frees.
fn churn(a: &NvAllocator, slots: usize, rounds: usize) {
    let mut t = a.thread();
    let sizes = [16usize, 48, 100, 256, 600, 1500, 4096, 9000, 40_000];
    for r in 0..rounds {
        for i in 0..slots {
            let root = a.root_offset(i);
            if r > 0 {
                t.free_from(root).unwrap();
            }
            t.malloc_to(sizes[(r + i) % sizes.len()], root).unwrap();
        }
    }
    for i in 0..slots {
        t.free_from(a.root_offset(i)).unwrap();
    }
    t.flush_cache();
}

#[test]
fn clean_run_has_zero_violations_log() {
    let (p, a) = mk_san(NvConfig::log(), 48 << 20);
    churn(&a, 64, 4);
    a.quiesce();
    a.exit();
    assert_eq!(p.pmsan_total(), 0, "{}", p.pmsan_report().unwrap().to_json());
}

#[test]
fn clean_run_has_zero_violations_gc() {
    let (p, a) = mk_san(NvConfig::gc(), 48 << 20);
    churn(&a, 64, 4);
    a.quiesce();
    a.exit();
    assert_eq!(p.pmsan_total(), 0, "{}", p.pmsan_report().unwrap().to_json());
}

#[test]
fn clean_run_has_zero_violations_base() {
    let (p, a) = mk_san(NvConfig::base(), 48 << 20);
    churn(&a, 64, 4);
    a.quiesce();
    a.exit();
    assert_eq!(p.pmsan_total(), 0, "{}", p.pmsan_report().unwrap().to_json());
}

#[test]
fn recovery_run_has_zero_violations() {
    // Crash mid-churn, recover on a sanitized pool: recovery's own
    // persistence (WAL replay, GC rebuild, leak reclaim) must also be
    // ordering-clean.
    let (p, a) = mk_san(NvConfig::log(), 48 << 20);
    churn(&a, 32, 2);
    let mut t = a.thread();
    for i in 0..16 {
        t.malloc_to(100, a.root_offset(i)).unwrap();
    }
    drop(t);
    let img = p.crash();
    let rp = PmemPool::from_crash_image(img);
    assert!(rp.pmsan_enabled(), "crash image must inherit pmsan config");
    let (ra, _report) = NvAllocator::recover(Arc::clone(&rp), NvConfig::log()).unwrap();
    ra.exit();
    assert_eq!(rp.pmsan_total(), 0, "{}", rp.pmsan_report().unwrap().to_json());
}

#[test]
fn sanitizer_is_measurement_invariant() {
    // Modelled results (virtual clocks, flush/fence counts) must be
    // identical with the sanitizer on and off: it observes the
    // persistence stream, it never participates in it.
    let run = |pmsan: bool| {
        let p = PmemPool::new(
            PmemConfig::default()
                .pool_size(48 << 20)
                .latency_mode(LatencyMode::Off)
                .crash_tracking(true)
                .pmsan(pmsan),
        );
        let a = NvAllocator::create(Arc::clone(&p), NvConfig::log()).expect("create");
        churn(&a, 48, 3);
        a.quiesce();
        a.exit();
        p.stats().snapshot()
    };
    assert_eq!(run(true), run(false));
}

#[test]
fn quiesce_drains_remote_queues() {
    let (p, a) = mk_san(NvConfig::log().arenas(4), 48 << 20);
    // Allocate on one thread (arena A), free on another (arena B):
    // the frees are deferred onto A's remote queue.
    let mut t1 = a.thread();
    for i in 0..40 {
        t1.malloc_to(64, a.root_offset(i)).unwrap();
    }
    t1.flush_cache();
    let mut t2 = a.thread();
    for i in 0..40 {
        t2.free_from(a.root_offset(i)).unwrap();
    }
    t2.flush_cache();
    drop(t1);
    drop(t2);
    let before = a.metrics();
    a.quiesce();
    let after = a.metrics();
    assert!(
        after.remote_drained >= before.remote_drained,
        "quiesce must not lose drain accounting"
    );
    // The heap is idle and every deferred free is home: live accounting
    // is exact and a shutdown right now is violation-free.
    assert_eq!(a.live_bytes(), 0);
    a.exit();
    assert_eq!(p.pmsan_total(), 0, "{}", p.pmsan_report().unwrap().to_json());
}

#[test]
fn metrics_surface_pmsan_counters() {
    let (p, a) = mk_san(NvConfig::log(), 32 << 20);
    // Manufacture one violation straight on the pool: an empty fence.
    let mut t = p.register_thread();
    p.fence(&mut t);
    let m = a.metrics();
    assert_eq!(m.pmsan_empty_fence, 1);
    assert_eq!(m.pmsan_violations, 1);
    let json = m.to_json();
    assert!(json.contains("\"pmsan_empty_fence\":1"), "{json}");
    a.exit();
}

#[test]
fn window_images_all_recover_clean() {
    // Enumerate every legal crash image across a window of allocator
    // activity; each one must recover and pass the doctor's audit.
    let (p, a) = mk_san(NvConfig::log(), 48 << 20);
    churn(&a, 16, 2);
    p.pmsan_window_begin();
    let mut t = a.thread();
    for i in 0..6 {
        t.malloc_to(100 + i * 64, a.root_offset(i)).unwrap();
    }
    for i in 0..3 {
        t.free_from(a.root_offset(i)).unwrap();
    }
    t.flush_cache();
    drop(t);
    let w = p.pmsan_window_end();
    assert!(w.fence_count() > 0, "window saw no fences");
    let images = p.pmsan_window_images(&w, 512);
    assert!(!images.is_empty());
    let n = images.len();
    for (i, img) in images.into_iter().enumerate() {
        let rp = PmemPool::from_crash_image(img);
        let (ra, _rep) = NvAllocator::recover(Arc::clone(&rp), NvConfig::log())
            .unwrap_or_else(|e| panic!("image {i}/{n}: recovery failed: {e:?}"));
        let verdict = doctor::audit_pool(ra.pool(), &NvConfig::log());
        assert!(verdict.clean(), "image {i}/{n}: doctor violations: {:?}", verdict.violations);
        drop(ra);
    }
    // The original (uncrashed) allocator is still intact.
    a.exit();
}

#[test]
fn enumeration_covers_fence_subsets_on_raw_pool() {
    // Deterministic shape check on the allocator's pool: two fences with
    // known pending sets enumerate to the expected distinct images.
    let (p, _a) = mk_san(NvConfig::log(), 32 << 20);
    let mut t = p.register_thread();
    let heap = 16 << 20; // scratch offsets well inside the pool
    p.pmsan_window_begin();
    p.write_u64(heap, 1);
    p.charge_store(&mut t, heap, 8);
    p.flush(&mut t, heap, 8, FlushKind::Data);
    p.fence(&mut t);
    let w = p.pmsan_window_end();
    assert_eq!(w.fence_count(), 1);
    let images = p.pmsan_window_images(&w, 16);
    assert_eq!(images.len(), 2, "one pending line => in/out images");
}
