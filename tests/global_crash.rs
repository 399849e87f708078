//! Crash matrix for the global front end's slot directory: sweep the
//! power-failure point across every flush of (a) the init handshake that
//! formats the directory and (b) a shim window containing a moving
//! `nv_realloc` (old live → persistent copy → new live → old freed), a
//! fresh `nv_malloc`, and an `nv_free`. At every prefix the crash image
//! must re-attach, recover a plausible object set — committed objects
//! intact, the realloc target present as old, old+new, or new, **never
//! neither** — with no overlap and no double-ownership, and the
//! persist-ordering sanitizer must stay silent on both sides of the
//! crash. The final tests pin the clean rejection of mismatched
//! directory magic / layout version and of a damaged slot-page chain.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use nvalloc::api::PmAllocator;
use nvalloc::global::{self, nv_free, nv_malloc, nv_realloc, nv_usable_size};
use nvalloc::NvConfig;
use nvalloc_pmem::{FlushKind, LatencyMode, PmError, PmemConfig, PmemPool};

static LOCK: Mutex<()> = Mutex::new(());

struct Reset;
impl Drop for Reset {
    fn drop(&mut self) {
        // SAFETY: LOCK serializes tests; no pointer from a previous
        // incarnation is touched after this guard runs.
        unsafe { global::reset_unchecked() }
    }
}

fn cfg() -> NvConfig {
    NvConfig::log().arenas(2)
}

fn crash_pool() -> Arc<PmemPool> {
    PmemPool::new(
        PmemConfig::default()
            .pool_size(48 << 20)
            .latency_mode(LatencyMode::Off)
            .crash_tracking(true)
            .pmsan(true),
    )
}

fn pmsan_clean(pool: &PmemPool, what: &str) {
    assert_eq!(pool.pmsan_total(), 0, "pmsan violations {what}: {:?}", pool.pmsan_report());
}

fn off_of(pool: &PmemPool, ptr: *mut core::ffi::c_void) -> u64 {
    (ptr as usize - pool.base_ptr() as usize) as u64
}

/// Write a recognizable pattern *through the pool API* (flushed + fenced)
/// so it participates in crash tracking, unlike raw-pointer stores.
fn persist_pattern(pool: &PmemPool, off: u64, len: usize, tag: u8) {
    let buf: Vec<u8> = (0..len).map(|i| tag.wrapping_add(i as u8)).collect();
    pool.write_bytes(off, &buf);
    let mut pt = pool.register_thread();
    pool.flush(&mut pt, off, len, FlushKind::Data);
    pool.fence(&mut pt);
}

fn check_pattern(pool: &PmemPool, off: u64, len: usize, tag: u8, what: &str) {
    let mut buf = vec![0u8; len];
    pool.read_bytes(off, &mut buf);
    for (i, b) in buf.iter().enumerate() {
        assert_eq!(*b, tag.wrapping_add(i as u8), "{what}: byte {i} at {off:#x}");
    }
}

const A_SIZE: usize = 1000;
const B_SIZE: usize = 30_000; // extent-path object
const C_SIZE: usize = 200;
const X_SIZE: usize = 600;
const X_NEW: usize = 50_000; // realloc target moves (and moves tiers)
const Y_SIZE: usize = 700;

struct Trace {
    a: u64,
    b: u64,
    c: u64,
    x_old: u64,
    x_new: u64,
    y: u64,
}

/// Settled prefix: init + allocate A, B, C, X and persist their payloads.
fn setup(pool: &Arc<PmemPool>) -> (u64, u64, u64, u64) {
    global::init(Arc::clone(pool), cfg()).expect("init");
    let a = off_of(pool, nv_malloc(A_SIZE));
    let b = off_of(pool, nv_malloc(B_SIZE));
    let c = off_of(pool, nv_malloc(C_SIZE));
    let x = off_of(pool, nv_malloc(X_SIZE));
    persist_pattern(pool, a, A_SIZE, 0xA0);
    persist_pattern(pool, b, B_SIZE, 0xB0);
    persist_pattern(pool, c, C_SIZE, 0xC0);
    persist_pattern(pool, x, X_SIZE, 0x50);
    (a, b, c, x)
}

/// The crash window: a moving realloc, a fresh malloc, a free.
fn window(pool: &Arc<PmemPool>, a: u64, b: u64, c: u64, x: u64) -> Trace {
    let x_ptr = (pool.base_ptr() as usize + x as usize) as *mut core::ffi::c_void;
    let x_new_ptr = nv_realloc(x_ptr, X_NEW);
    assert!(!x_new_ptr.is_null());
    let y = off_of(pool, nv_malloc(Y_SIZE));
    let c_ptr = (pool.base_ptr() as usize + c as usize) as *mut core::ffi::c_void;
    nv_free(c_ptr);
    Trace { a, b, c, x_old: x, x_new: off_of(pool, x_new_ptr), y }
}

/// Run the full trace unfrozen and report the window's flush span.
fn window_flushes() -> u64 {
    let _reset = Reset;
    let pool = crash_pool();
    let (a, b, c, x) = setup(&pool);
    let f0 = pool.stats().flushes();
    let _t = window(&pool, a, b, c, x);
    pmsan_clean(&pool, "in unfrozen trace");
    pool.stats().flushes() - f0
}

/// Crash the image at the current freeze point, re-attach, and verify the
/// directory's recovery contract for the scripted trace.
fn crash_and_verify(pool: &Arc<PmemPool>, t: &Trace, label: &str) {
    pmsan_clean(pool, &format!("pre-crash ({label})"));
    let img = PmemPool::from_crash_image(pool.crash());
    // SAFETY: the old incarnation's pointers are dropped with the trace.
    unsafe { global::reset_unchecked() };
    let rep = global::init(Arc::clone(&img), cfg())
        .unwrap_or_else(|e| panic!("{label}: attach after crash failed: {e}"));
    assert!(!rep.created, "{label}: image lost the formatted heap");

    let mut rec: HashMap<u64, usize> = HashMap::new();
    for (ptr, usable) in global::recovered_objects() {
        let off = (ptr as usize - img.base_ptr() as usize) as u64;
        assert!(rec.insert(off, usable).is_none(), "{label}: offset {off:#x} recovered twice");
    }

    // Nothing outside the scripted universe may surface.
    let universe = [t.a, t.b, t.c, t.x_old, t.x_new, t.y];
    for off in rec.keys() {
        assert!(universe.contains(off), "{label}: unexpected recovered object {off:#x}");
    }
    // A, B committed and published before the window: always present,
    // payload intact.
    for (off, size, tag, name) in [(t.a, A_SIZE, 0xA0u8, "A"), (t.b, B_SIZE, 0xB0, "B")] {
        let usable =
            *rec.get(&off).unwrap_or_else(|| panic!("{label}: committed object {name} lost"));
        assert!(usable >= size, "{label}: {name} usable shrank to {usable}");
        check_pattern(&img, off, size, tag, name);
    }
    // The realloc target: old, both, or new — never neither.
    let old_live = rec.contains_key(&t.x_old);
    let new_live = rec.contains_key(&t.x_new);
    assert!(old_live || new_live, "{label}: realloc target lost (neither old nor new)");
    if old_live {
        check_pattern(&img, t.x_old, X_SIZE, 0x50, "X(old)");
    }
    if new_live {
        // Publication follows the persistent copy, so a published new
        // block always carries the old prefix.
        check_pattern(&img, t.x_new, X_SIZE.min(X_NEW), 0x50, "X(new)");
        assert!(rec[&t.x_new] >= X_NEW, "{label}: X(new) usable too small");
    }
    // No double-ownership: recovered usable spans must not overlap.
    let spans: Vec<(u64, u64)> = rec.iter().map(|(o, u)| (*o, *o + *u as u64)).collect();
    for (i, s) in spans.iter().enumerate() {
        for s2 in &spans[i + 1..] {
            assert!(s.1 <= s2.0 || s.0 >= s2.1, "{label}: spans {s:?} and {s2:?} overlap");
        }
    }
    // Every recovered object is freeable exactly once, and the heap ends
    // holding only the directory.
    for (ptr, _) in global::recovered_objects() {
        nv_free(ptr.cast());
    }
    let live = global::with_allocator(|al| al.live_bytes()).unwrap();
    assert!(live <= 64 << 10, "{label}: {live} bytes still live after freeing everything");
    // The re-attached heap is fully usable.
    let p = nv_malloc(4096);
    assert!(!p.is_null());
    assert!(nv_usable_size(p) >= 4096);
    nv_free(p);
    pmsan_clean(&img, &format!("after recovery ({label})"));
}

#[test]
fn realloc_window_crash_matrix() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let total = window_flushes();
    assert!(total > 10, "window unexpectedly cheap ({total} flushes)");
    for n in 0..=total {
        let _reset = Reset;
        let pool = crash_pool();
        let (a, b, c, x) = setup(&pool);
        pool.freeze_persistence_after(n);
        let t = window(&pool, a, b, c, x);
        crash_and_verify(&pool, &t, &format!("freeze={n}/{total}"));
    }
}

#[test]
fn init_handshake_crash_matrix() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Measure a full init's flush count.
    let total = {
        let _reset = Reset;
        let pool = crash_pool();
        global::init(Arc::clone(&pool), cfg()).unwrap();
        pool.stats().flushes()
    };
    assert!(total > 10);
    // Crash inside init at every few flushes (and at the very end); the
    // image must always re-attach to an empty, fully usable heap.
    let points: Vec<u64> = (0..total).step_by(3).chain([total]).collect();
    for n in points {
        let _reset = Reset;
        let pool = crash_pool();
        pool.freeze_persistence_after(n);
        global::init(Arc::clone(&pool), cfg()).unwrap();
        pmsan_clean(&pool, &format!("in frozen init (freeze={n})"));
        let img = PmemPool::from_crash_image(pool.crash());
        // SAFETY: serialized by LOCK; prior pointers are not reused.
        unsafe { global::reset_unchecked() };
        global::init(Arc::clone(&img), cfg())
            .unwrap_or_else(|e| panic!("freeze={n}/{total}: attach failed: {e}"));
        assert!(global::recovered_objects().is_empty(), "freeze={n}: phantom object");
        let p = nv_malloc(1234);
        assert!(!p.is_null(), "freeze={n}: heap unusable after re-attach");
        persist_pattern(&img, off_of(&img, p), 1234, 0x77);
        check_pattern(&img, off_of(&img, p), 1234, 0x77, "post-attach payload");
        nv_free(p);
        pmsan_clean(&img, &format!("after re-attach (freeze={n})"));
    }
}

#[test]
fn damaged_slot_page_chain_is_rejected() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for past_the_pool in [false, true] {
        let _reset = Reset;
        let pool = crash_pool();
        global::init(Arc::clone(&pool), cfg()).unwrap();
        assert!(!nv_malloc(64).is_null());
        let meta = global::with_allocator(|a| pool.read_u64(a.root_offset(0))).unwrap();
        global::shutdown().unwrap();
        // The first slot page's link word names that page again (a
        // cycle) or a page past the pool's end.
        let page = pool.read_u64(meta + 16);
        pool.write_u64(page, if past_the_pool { pool.size() as u64 } else { page });
        // SAFETY: serialized by LOCK; no pointer from before is used again.
        unsafe { global::reset_unchecked() };
        let err = global::init(Arc::clone(&pool), cfg()).unwrap_err();
        assert!(matches!(err, PmError::Corrupt(_)), "got {err:?}");
        assert!(!global::is_initialized());
        assert!(nv_malloc(8).is_null());
    }
}

#[test]
fn mismatched_directory_magic_and_version_are_rejected() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for corrupt_version in [false, true] {
        let _reset = Reset;
        let pool = crash_pool();
        global::init(Arc::clone(&pool), cfg()).unwrap();
        let p = nv_malloc(64);
        assert!(!p.is_null());
        let meta = global::with_allocator(|a| pool.read_u64(a.root_offset(0))).unwrap();
        global::shutdown().unwrap();
        if corrupt_version {
            pool.write_u64(meta + 8, 999); // unsupported layout version
        } else {
            pool.write_u64(meta, 0xDEAD_BEEF_DEAD_BEEF); // wrong magic
        }
        // SAFETY: serialized by LOCK; `p` is never used again.
        unsafe { global::reset_unchecked() };
        let err = global::init(Arc::clone(&pool), cfg()).unwrap_err();
        assert!(matches!(err, PmError::Corrupt(_)), "got {err:?}");
        // The rejection releases the handshake sentinel: front end stays
        // uninitialized and a later init is possible.
        assert!(!global::is_initialized());
        assert!(nv_malloc(8).is_null());
    }
}
