//! Crash matrix for the global front end's slot directory: sweep the
//! power-failure point across every flush of (a) the init handshake that
//! formats the directory and (b) a shim window containing a moving
//! `nv_realloc` (old live → persistent copy → new live → old freed), a
//! fresh `nv_malloc`, and an `nv_free` — once on fresh pairs, and once on
//! pairs whose word B still publishes a freed object. At every prefix the
//! crash image must re-attach, recover a plausible object set — committed
//! objects intact, the realloc target present as old, old+new, or new,
//! **never neither**, no stale publication — with no overlap and no
//! double-ownership, and the persist-ordering sanitizer must stay silent
//! on both sides of the crash. A third sweep crashes an `nv_calloc` onto a
//! block of stale bytes: it recovers no object or an all-zero one. The
//! final tests pin the clean rejection of
//! mismatched directory magic / layout version and of a damaged slot-page
//! chain, and a failed `nv_malloc`'s silence under the sanitizer.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use nvalloc::api::PmAllocator;
use nvalloc::global::{self, nv_calloc, nv_free, nv_malloc, nv_realloc, nv_usable_size};
use nvalloc::NvConfig;
use nvalloc_pmem::{FlushKind, LatencyMode, PmError, PmemConfig, PmemPool};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

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

/// Size the stale-publication matrix reallocs its first freed object to
/// (4 KiB class: neither the window's objects nor the fillers share it).
const S_SIZE: usize = 4000;

struct Trace {
    a: u64,
    b: u64,
    c: u64,
    x_old: u64,
    x_new: u64,
    y: u64,
    /// Freed objects still named by a pair's word B.
    stale: Vec<u64>,
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

/// Word-A offsets and the current (A, B) words of every pair on the
/// directory's first slot page.
fn first_page_pairs(pool: &PmemPool) -> Vec<(u64, u64, u64)> {
    let meta = global::with_allocator(|a| pool.read_u64(a.root_offset(0))).unwrap();
    let page = pool.read_u64(meta + 16);
    (16..4096u64)
        .step_by(16)
        .map(|b| (page + b, pool.read_u64(page + b), pool.read_u64(page + b + 8)))
        .collect()
}

/// Cycle the free-pair FIFO after `setup` so that its front pair still
/// publishes a freed object at its block base (B == 1, as `nv_malloc`
/// leaves it) and the next one a freed object at its offset (as a moving
/// realloc leaves it): free two such objects, then take and give back
/// every fresher pair. Returns the freed objects' offsets.
fn cycle_to_stale_pairs(pool: &Arc<PmemPool>) -> Vec<u64> {
    let first = nv_malloc(8);
    let moved = nv_realloc(first, S_SIZE);
    assert!(!first.is_null() && !moved.is_null() && moved != first);
    nv_free(moved);
    let free_pairs = first_page_pairs(pool).iter().filter(|p| p.1 == 0).count();
    let fillers: Vec<_> = (0..free_pairs - 2).map(|_| nv_malloc(8)).collect();
    assert!(fillers.iter().all(|p| !p.is_null()));
    fillers.into_iter().for_each(|p| nv_free(p));
    vec![off_of(pool, first), off_of(pool, moved)]
}

/// The crash window: a moving realloc, a fresh malloc, a free.
fn window(pool: &Arc<PmemPool>, a: u64, b: u64, c: u64, x: u64, stale: Vec<u64>) -> Trace {
    let x_ptr = (pool.base_ptr() as usize + x as usize) as *mut core::ffi::c_void;
    let x_new_ptr = nv_realloc(x_ptr, X_NEW);
    assert!(!x_new_ptr.is_null());
    let y = off_of(pool, nv_malloc(Y_SIZE));
    let c_ptr = (pool.base_ptr() as usize + c as usize) as *mut core::ffi::c_void;
    nv_free(c_ptr);
    Trace { a, b, c, x_old: x, x_new: off_of(pool, x_new_ptr), y, stale }
}

/// The settled prefix: `setup`, then for the stale matrix the FIFO cycle.
fn prefix(pool: &Arc<PmemPool>, stale: bool) -> (u64, u64, u64, u64, Vec<u64>) {
    let (a, b, c, x) = setup(pool);
    let stale = if stale { cycle_to_stale_pairs(pool) } else { Vec::new() };
    (a, b, c, x, stale)
}

/// Run the full trace unfrozen and report the window's flush span. For
/// the stale matrix, also check its premise: the moving realloc and the
/// malloc land on the pairs that published the freed objects.
fn window_flushes(stale: bool) -> u64 {
    let _reset = Reset;
    let pool = crash_pool();
    let (a, b, c, x, stale) = prefix(&pool, stale);
    let before = first_page_pairs(&pool);
    let f0 = pool.stats().flushes();
    let t = window(&pool, a, b, c, x, stale);
    let flushes = pool.stats().flushes() - f0;
    pmsan_clean(&pool, "in unfrozen trace");
    if let [_, moved] = t.stale[..] {
        for (obj, stale_b, name) in [(t.x_new, 1, "realloc target"), (t.y, moved, "malloc")] {
            let pair = first_page_pairs(&pool).iter().position(|p| p.1 == obj).unwrap();
            assert_eq!(before[pair].2, stale_b, "{name} took a pair without the stale B");
        }
    }
    flushes
}

/// Crash a window at every flush; `stale` runs it on stale pairs.
fn window_crash_matrix(stale: bool) {
    let total = window_flushes(stale);
    assert!(total > 10, "window unexpectedly cheap ({total} flushes)");
    for n in 0..=total {
        let _reset = Reset;
        let pool = crash_pool();
        let (a, b, c, x, stale) = prefix(&pool, stale);
        pool.freeze_persistence_after(n);
        let t = window(&pool, a, b, c, x, stale);
        crash_and_verify(&pool, &t, &format!("freeze={n}/{total}"));
    }
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

    // A pair whose B names a freed object never brings that object back,
    // and nothing else outside the scripted universe surfaces either: a
    // fresh malloc's object is absent or recovered at its block base.
    for s in &t.stale {
        assert!(!rec.contains_key(s), "{label}: stale publication {s:#x} came back");
    }
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
    window_crash_matrix(false);
}

#[test]
fn stale_publication_crash_matrix() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    window_crash_matrix(true);
}

#[test]
fn failed_malloc_leaves_pmsan_clean() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _reset = Reset;
    let pool = crash_pool();
    global::init(Arc::clone(&pool), cfg()).unwrap();
    let keep = nv_malloc(A_SIZE);
    assert!(!keep.is_null());
    assert!(nv_malloc(1 << 40).is_null(), "a request past the pool must fail");
    pmsan_clean(&pool, "after a failed nv_malloc");
    // The failed request's pair serves the next malloc, and a crash then
    // recovers exactly the live objects.
    let next = nv_malloc(Y_SIZE);
    assert!(!next.is_null());
    pmsan_clean(&pool, "after the next nv_malloc");
    let img = PmemPool::from_crash_image(pool.crash());
    // SAFETY: serialized by LOCK; `keep` and `next` are not used again.
    unsafe { global::reset_unchecked() };
    global::init(Arc::clone(&img), cfg()).unwrap();
    let mut rec: Vec<u64> = global::recovered_objects()
        .into_iter()
        .map(|(p, _)| (p as usize - img.base_ptr() as usize) as u64)
        .collect();
    rec.sort_unstable();
    let mut want = vec![off_of(&pool, keep), off_of(&pool, next)];
    want.sort_unstable();
    assert_eq!(rec, want);
    pmsan_clean(&img, "after recovery");
}

/// Settled prefix for the grow matrix: take every pair of the first slot
/// page, so the next allocation grows the directory. Returns the live
/// offsets.
fn fill_first_page(pool: &Arc<PmemPool>) -> Vec<u64> {
    global::init(Arc::clone(pool), cfg()).expect("init");
    let free_pairs = first_page_pairs(pool).iter().filter(|p| p.1 == 0).count();
    (0..free_pairs).map(|_| off_of(pool, nv_malloc(8))).collect()
}

/// The last zeroed slot page (meta word 3).
fn last_zeroed_page(pool: &PmemPool) -> u64 {
    let meta = global::with_allocator(|a| pool.read_u64(a.root_offset(0))).unwrap();
    pool.read_u64(meta + 24)
}

/// Crash at every flush of an `nv_malloc` that grows the directory onto a
/// block full of persisted garbage, as a recycled block would be. The
/// page commits straight into the chain's tail link; until meta word 3
/// records it zeroed, attach zeroes it itself. Either way exactly the live
/// set comes back — plus the new object once its commit landed.
#[test]
fn slot_page_grow_crash_matrix() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // The unfrozen run names the block the grow takes (the replay is
    // deterministic) and the window's flush span.
    let (page, total) = {
        let _reset = Reset;
        let pool = crash_pool();
        fill_first_page(&pool);
        let first = last_zeroed_page(&pool);
        let f0 = pool.stats().flushes();
        assert!(!nv_malloc(Y_SIZE).is_null());
        pmsan_clean(&pool, "in unfrozen grow");
        assert_ne!(last_zeroed_page(&pool), first, "the window did not grow the directory");
        (last_zeroed_page(&pool), pool.stats().flushes() - f0)
    };
    for n in 0..=total {
        let label = format!("freeze={n}/{total}");
        let _reset = Reset;
        let pool = crash_pool();
        let mut live = fill_first_page(&pool);
        persist_pattern(&pool, page, 4096, 0x11);
        pool.freeze_persistence_after(n);
        let y = off_of(&pool, nv_malloc(Y_SIZE));
        assert_eq!(last_zeroed_page(&pool), page, "{label}: the grow took another block");
        pmsan_clean(&pool, &format!("pre-crash ({label})"));
        let img = PmemPool::from_crash_image(pool.crash());
        // SAFETY: serialized by LOCK; the old incarnation's pointers are
        // not used again.
        unsafe { global::reset_unchecked() };
        global::init(Arc::clone(&img), cfg())
            .unwrap_or_else(|e| panic!("{label}: attach after crash failed: {e}"));
        let mut rec: Vec<u64> = global::recovered_objects()
            .into_iter()
            .map(|(p, _)| (p as usize - img.base_ptr() as usize) as u64)
            .collect();
        rec.sort_unstable();
        if rec.contains(&y) {
            live.push(y);
        }
        live.sort_unstable();
        assert_eq!(rec, live, "{label}: recovered set");
        for (ptr, _) in global::recovered_objects() {
            nv_free(ptr.cast());
        }
        let p = nv_malloc(Y_SIZE);
        assert!(!p.is_null(), "{label}: heap unusable after re-attach");
        nv_free(p);
        pmsan_clean(&img, &format!("after recovery ({label})"));
    }
}

/// Crash at every flush of one `nv_calloc(1, 200)` onto a block holding
/// persisted 0xAB bytes (one of 64 freed `nv_malloc` blocks, all filled
/// so). Each attach recovers no new object or an all-zero one: the zero
/// fill is durable before the object is published.
#[test]
fn calloc_zero_fill_crash_matrix() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    const LEN: usize = 200;
    // Settled prefix: 64 blocks of persisted 0xAB, freed.
    let prefix = |pool: &Arc<PmemPool>| -> Vec<u64> {
        global::init(Arc::clone(pool), cfg()).expect("init");
        let ptrs: Vec<_> = (0..64).map(|_| nv_malloc(LEN)).collect();
        let mut pt = pool.register_thread();
        let offs: Vec<u64> = ptrs.iter().map(|&p| off_of(pool, p)).collect();
        for &off in &offs {
            pool.write_bytes(off, &[0xAB; LEN]);
            pool.flush(&mut pt, off, LEN, FlushKind::Data);
        }
        pool.fence(&mut pt);
        ptrs.into_iter().for_each(|p| nv_free(p));
        offs
    };
    let total = {
        let _reset = Reset;
        let pool = crash_pool();
        let stale = prefix(&pool);
        let f0 = pool.stats().flushes();
        let block = off_of(&pool, nv_calloc(1, LEN));
        assert!(stale.contains(&block), "calloc took a block without stale bytes");
        pmsan_clean(&pool, "in unfrozen calloc");
        pool.stats().flushes() - f0
    };
    for n in 0..=total {
        let label = format!("freeze={n}/{total}");
        let _reset = Reset;
        let pool = crash_pool();
        prefix(&pool);
        pool.freeze_persistence_after(n);
        let block = off_of(&pool, nv_calloc(1, LEN));
        pmsan_clean(&pool, &format!("pre-crash ({label})"));
        let img = PmemPool::from_crash_image(pool.crash());
        // SAFETY: serialized by LOCK; the old incarnation's pointers are
        // not used again.
        unsafe { global::reset_unchecked() };
        global::init(Arc::clone(&img), cfg())
            .unwrap_or_else(|e| panic!("{label}: attach after crash failed: {e}"));
        let rec: Vec<u64> = global::recovered_objects()
            .into_iter()
            .map(|(p, _)| (p as usize - img.base_ptr() as usize) as u64)
            .collect();
        assert!(rec.iter().all(|&o| o == block), "{label}: unexpected objects {rec:x?}");
        if !rec.is_empty() {
            let mut buf = [0u8; LEN];
            img.read_bytes(block, &mut buf);
            let dirty = buf.iter().filter(|&&b| b != 0).count();
            assert_eq!(dirty, 0, "{label}: the recovered calloc object has {dirty} non-zero bytes");
        }
        pmsan_clean(&img, &format!("after recovery ({label})"));
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
    // Word 0 is the magic, word 1 the layout version: an unknown one, and
    // version 1, whose pairs cleared B on free and whose meta word 3 was a
    // staging slot.
    for (word, value) in [(0, 0xDEAD_BEEF_DEAD_BEEF), (8, 999), (8, 1)] {
        let _reset = Reset;
        let pool = crash_pool();
        global::init(Arc::clone(&pool), cfg()).unwrap();
        let p = nv_malloc(64);
        assert!(!p.is_null());
        let meta = global::with_allocator(|a| pool.read_u64(a.root_offset(0))).unwrap();
        global::shutdown().unwrap();
        pool.write_u64(meta + word, value);
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

#[test]
fn hostile_directory_root_is_rejected() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Root 0 names an offset past the pool, an unaligned offset, and an
    // interior word of a live block: attach must refuse it before it
    // reads through it.
    for case in 0..3 {
        let _reset = Reset;
        let pool = crash_pool();
        global::init(Arc::clone(&pool), cfg()).unwrap();
        let live = off_of(&pool, nv_malloc(1000));
        let root0 = global::with_allocator(|a| a.root_offset(0)).unwrap();
        let meta = pool.read_u64(root0);
        global::shutdown().unwrap();
        let bad = [u64::MAX - 7, meta + 4, live + 8][case];
        pool.write_u64(root0, bad);
        // SAFETY: serialized by LOCK; no pointer from before is used again.
        unsafe { global::reset_unchecked() };
        let err = global::init(Arc::clone(&pool), cfg()).unwrap_err();
        assert!(matches!(err, PmError::Corrupt(_)), "root 0 := {bad:#x}: got {err:?}");
        assert!(!global::is_initialized());
        assert!(nv_malloc(8).is_null());
        // The refusal wrote nothing: with root 0 mended, the same pool
        // attaches and hands the object back.
        pool.write_u64(root0, meta);
        let report = global::init(Arc::clone(&pool), cfg()).unwrap();
        assert_eq!(report.recovered, 1, "root 0 := {bad:#x}");
    }
}

#[test]
fn block_named_twice_is_rejected() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // A never-used pair (A == 0, B == 0) whose word A names a live,
    // published block would read as an unpublished allocation: attach
    // would free the block and still hand the object back.
    let _reset = Reset;
    let pool = crash_pool();
    global::init(Arc::clone(&pool), cfg()).unwrap();
    let live = off_of(&pool, nv_malloc(64));
    let img = PmemPool::from_crash_image(pool.crash());
    let fresh = first_page_pairs(&img).into_iter().find(|&(_, a, b)| a == 0 && b == 0);
    let (a_off, _, _) = fresh.expect("a never-used pair on the first page");
    img.write_u64(a_off, live);
    // SAFETY: serialized by LOCK; no pointer from before is used again.
    unsafe { global::reset_unchecked() };
    let err = global::init(Arc::clone(&img), cfg()).unwrap_err();
    assert!(matches!(err, PmError::Corrupt(_)), "got {err:?}");
    assert!(!global::is_initialized());
}

#[test]
fn seeded_directory_mutations_attach_or_refuse() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // A crashed shim image with live small and extent objects, freed
    // pairs and one pair reused.
    let (image, root0) = {
        let _reset = Reset;
        let pool = crash_pool();
        global::init(Arc::clone(&pool), cfg()).unwrap();
        let p: Vec<_> = [64, A_SIZE, B_SIZE, C_SIZE, S_SIZE, 64].map(|n| nv_malloc(n)).to_vec();
        nv_free(p[1]);
        nv_free(p[3]);
        assert!(!nv_malloc(Y_SIZE).is_null());
        let root0 = global::with_allocator(|a| a.root_offset(0)).unwrap();
        (pool.crash(), root0)
    };
    // The directory's own words: root 0, the meta block, the first page
    // (its link word and used pairs half the time, any of its words else).
    let clean = PmemPool::from_crash_image(image.clone());
    let meta = clean.read_u64(root0);
    let page = clean.read_u64(meta + 16);
    let page_words = (0..512).map(|w| page + 8 * w);
    let used: Vec<u64> = page_words.clone().filter(|&w| clean.read_u64(w) != 0).collect();
    let groups = [vec![root0], (0..8).map(|w| meta + 8 * w).collect(), used, page_words.collect()];
    let size = clean.size() as u64;
    let mut rng = SmallRng::seed_from_u64(0x5eed_0003_d1e0);
    let (mut attached, mut refused) = (0, 0);
    for case in 0..40 {
        let group = &groups[rng.gen_range(0..groups.len())];
        let off = group[rng.gen_range(0..group.len())];
        let old = clean.read_u64(off);
        let value = match rng.gen_range(0..7) {
            0 => rng.gen(),
            1 => old ^ 1 << rng.gen_range(0..64u32),
            2 => 0,
            3 => old.wrapping_add(4096),
            4 => u64::MAX - 7,
            5 => rng.gen_range(0..size),
            _ => rng.gen_range(0..8),
        };
        println!("case {case}: word {off:#x} := {value:#x} (was {old:#x})");
        let _reset = Reset;
        let img = PmemPool::from_crash_image(image.clone());
        img.write_u64(off, value);
        // SAFETY: serialized by LOCK; no pointer from before is used again.
        unsafe { global::reset_unchecked() };
        match global::init(img, cfg()) {
            Ok(_) => attached += 1,
            Err(PmError::Corrupt(_)) => refused += 1,
            Err(e) => panic!("case {case}: word {off:#x} := {value:#x}: attach failed with {e}"),
        }
    }
    assert!(attached > 0 && refused > 0, "{attached} attached, {refused} refused");
}
