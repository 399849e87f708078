//! Differential battery for the `GlobalAlloc` front end and the C-ABI
//! shim: arbitrary malloc/free/realloc/calloc traces (sizes 0..64 KiB,
//! alignments to 4 KiB and beyond, realloc chains) run against a HashMap
//! model. Every step checks pointer alignment, non-overlap of usable
//! spans, payload contents, and `nv_usable_size` consistency; pinned unit
//! tests nail the semantic corners (zero-size, align > size, in-place
//! realloc, pre-init fallback, shutdown/retire behaviour, the GC variant's
//! refusal) and pin each shim op's persistence cost to the native op's.
//!
//! The front end is process-global, so every test serializes on [`LOCK`]
//! and tears the state down with `reset_unchecked` via a drop guard.

use std::alloc::{GlobalAlloc, Layout};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use nvalloc::api::PmAllocator;
use nvalloc::global::{self, nv_calloc, nv_free, nv_malloc, nv_realloc, nv_usable_size, GlobalNv};
use nvalloc::{NvAllocator, NvConfig};
use nvalloc_pmem::{LatencyMode, PmError, PmemConfig, PmemPool};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

static LOCK: Mutex<()> = Mutex::new(());

/// Tears the process-global front end down when a test (or proptest case)
/// exits, including early `prop_assert!` returns.
struct Reset;
impl Drop for Reset {
    fn drop(&mut self) {
        // SAFETY: the test holds LOCK (no concurrent front-end use) and
        // drops every pointer it obtained before this guard runs.
        unsafe { global::reset_unchecked() }
    }
}

fn fresh_pool(bytes: usize) -> Arc<PmemPool> {
    PmemPool::new(PmemConfig::default().pool_size(bytes).latency_mode(LatencyMode::Off))
}

// ---------------------------------------------------------------------------
// Differential proptest
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Step {
    /// C shim malloc (8-aligned).
    Malloc { key: u8, size: usize },
    /// GlobalAlloc alloc with alignment `1 << align_log`.
    Aligned { key: u8, size: usize, align_log: u8 },
    /// C shim calloc (zeroed).
    Calloc { key: u8, n: usize, elem: usize },
    /// Free through whichever interface allocated the key.
    Free { key: u8 },
    /// Realloc through whichever interface allocated the key.
    Realloc { key: u8, new_size: usize },
}

fn size_strategy() -> BoxedStrategy<usize> {
    prop_oneof![
        5 => 0usize..512,
        3 => 512usize..4096,
        1 => 4096usize..17_000,
        1 => 17_000usize..65_536, // > LARGE_MIN: extent path
    ]
    .boxed()
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        4 => (any::<u8>(), size_strategy()).prop_map(|(key, size)| Step::Malloc { key, size }),
        3 => (any::<u8>(), size_strategy(), 0u8..=13).prop_map(|(key, size, align_log)| {
            Step::Aligned { key, size: size.max(1), align_log }
        }),
        1 => (any::<u8>(), 1usize..64, 1usize..256)
            .prop_map(|(key, n, elem)| Step::Calloc { key, n, elem }),
        3 => any::<u8>().prop_map(|key| Step::Free { key }),
        3 => (any::<u8>(), size_strategy()).prop_map(|(key, new_size)| {
            Step::Realloc { key, new_size }
        }),
    ]
}

/// One live object in the model.
#[derive(Debug, Clone, Copy)]
struct Live {
    ptr: *mut u8,
    /// Bytes the application asked for (what we fill and verify).
    size: usize,
    /// Alignment requested at allocation time (layout identity for
    /// GlobalAlloc dealloc/realloc).
    align: usize,
    /// Last Layout size passed to GlobalAlloc (realloc updates it).
    layout_size: usize,
    /// Capacity per nv_usable_size (bounds the overlap spans).
    usable: usize,
    pattern: u8,
    via_global: bool,
}

fn fill(ptr: *mut u8, len: usize, pattern: u8) {
    for i in 0..len {
        // SAFETY: ptr..ptr+len is within the object's granted capacity.
        unsafe { ptr.add(i).write(pattern.wrapping_add(i as u8)) }
    }
}

fn verify(l: &Live) -> Result<(), TestCaseError> {
    for i in 0..l.size {
        // SAFETY: within the live object's requested size.
        let got = unsafe { l.ptr.add(i).read() };
        let want = l.pattern.wrapping_add(i as u8);
        prop_assert!(got == want, "byte {i} of {:p}: got {got:#x} want {want:#x}", l.ptr);
    }
    Ok(())
}

fn check_no_overlap(model: &HashMap<u8, Live>, key: u8, l: &Live) -> Result<(), TestCaseError> {
    let (lo, hi) = (l.ptr as usize, l.ptr as usize + l.usable);
    for (k2, o) in model {
        if *k2 == key {
            continue;
        }
        let (lo2, hi2) = (o.ptr as usize, o.ptr as usize + o.usable);
        prop_assert!(hi <= lo2 || lo >= hi2, "key {key} [{lo:#x},{hi:#x}) overlaps key {k2}");
    }
    Ok(())
}

fn free_one(l: &Live) {
    if l.via_global {
        // SAFETY: ptr came from GlobalNv::alloc with this layout identity.
        unsafe { GlobalNv.dealloc(l.ptr, Layout::from_size_align(l.layout_size, l.align).unwrap()) }
    } else {
        nv_free(l.ptr.cast());
    }
}

fn run_case(steps: &[Step], pattern0: u8) -> Result<(), TestCaseError> {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _reset = Reset;
    // Small pool + few arenas: the per-case cost is dominated by pool
    // zeroing and heap formatting, and CI runs 1000 cases.
    global::init(fresh_pool(24 << 20), NvConfig::log().arenas(2)).expect("init");

    let mut model: HashMap<u8, Live> = HashMap::new();
    let mut pattern = pattern0;
    for step in steps {
        pattern = pattern.wrapping_add(0x39);
        match *step {
            Step::Malloc { key, size } => {
                if let Some(l) = model.remove(&key) {
                    verify(&l)?;
                    free_one(&l);
                }
                let ptr = nv_malloc(size).cast::<u8>();
                prop_assert!(!ptr.is_null(), "nv_malloc({size}) returned null");
                prop_assert!((ptr as usize).is_multiple_of(8), "nv_malloc misaligned {ptr:p}");
                let usable = nv_usable_size(ptr.cast());
                prop_assert!(usable >= size.max(1), "usable {usable} < size {size}");
                let l = Live {
                    ptr,
                    size,
                    align: 8,
                    layout_size: size,
                    usable,
                    pattern,
                    via_global: false,
                };
                check_no_overlap(&model, key, &l)?;
                fill(ptr, size, pattern);
                model.insert(key, l);
            }
            Step::Aligned { key, size, align_log } => {
                if let Some(l) = model.remove(&key) {
                    verify(&l)?;
                    free_one(&l);
                }
                let align = 1usize << align_log;
                let layout = Layout::from_size_align(size, align).unwrap();
                // SAFETY: layout has non-zero size.
                let ptr = unsafe { GlobalNv.alloc(layout) };
                prop_assert!(!ptr.is_null(), "alloc({size}, {align}) returned null");
                prop_assert!(
                    (ptr as usize).is_multiple_of(align),
                    "ptr {ptr:p} not {align}-aligned"
                );
                let usable = nv_usable_size(ptr.cast());
                prop_assert!(usable >= size, "usable {usable} < size {size}");
                let l =
                    Live { ptr, size, align, layout_size: size, usable, pattern, via_global: true };
                check_no_overlap(&model, key, &l)?;
                fill(ptr, size, pattern);
                model.insert(key, l);
            }
            Step::Calloc { key, n, elem } => {
                if let Some(l) = model.remove(&key) {
                    verify(&l)?;
                    free_one(&l);
                }
                let size = n * elem;
                let ptr = nv_calloc(n, elem).cast::<u8>();
                prop_assert!(!ptr.is_null(), "nv_calloc({n}, {elem}) returned null");
                for i in 0..size {
                    // SAFETY: within the calloc'd object.
                    let b = unsafe { ptr.add(i).read() };
                    prop_assert!(b == 0, "calloc byte {i} not zero: {b:#x}");
                }
                let usable = nv_usable_size(ptr.cast());
                let l = Live {
                    ptr,
                    size,
                    align: 8,
                    layout_size: size,
                    usable,
                    pattern,
                    via_global: false,
                };
                check_no_overlap(&model, key, &l)?;
                fill(ptr, size, pattern);
                model.insert(key, l);
            }
            Step::Free { key } => {
                if let Some(l) = model.remove(&key) {
                    verify(&l)?;
                    free_one(&l);
                }
            }
            Step::Realloc { key, new_size } => {
                let Some(mut l) = model.remove(&key) else { continue };
                verify(&l)?;
                if !l.via_global && new_size == 0 {
                    // C semantics: realloc(p, 0) frees and returns null.
                    let r = nv_realloc(l.ptr.cast(), 0);
                    prop_assert!(r.is_null(), "nv_realloc(p, 0) must return null");
                    continue;
                }
                let new_size = new_size.max(1);
                let new_ptr = if l.via_global {
                    let layout = Layout::from_size_align(l.layout_size, l.align).unwrap();
                    // SAFETY: ptr/layout identity from the model; new_size > 0.
                    unsafe { GlobalNv.realloc(l.ptr, layout, new_size) }
                } else {
                    nv_realloc(l.ptr.cast(), new_size).cast::<u8>()
                };
                prop_assert!(!new_ptr.is_null(), "realloc to {new_size} returned null");
                prop_assert!(
                    (new_ptr as usize).is_multiple_of(l.align.min(8)),
                    "realloc result misaligned"
                );
                if new_size <= l.usable {
                    prop_assert!(new_ptr == l.ptr, "growth within usable must stay in place");
                }
                // Prefix preserved up to min(old size, new size).
                let keep = l.size.min(new_size);
                for i in 0..keep {
                    // SAFETY: within the reallocated object.
                    let got = unsafe { new_ptr.add(i).read() };
                    let want = l.pattern.wrapping_add(i as u8);
                    prop_assert!(got == want, "realloc lost byte {i}: {got:#x} != {want:#x}");
                }
                l.ptr = new_ptr;
                l.size = new_size;
                l.layout_size = new_size;
                l.usable = nv_usable_size(new_ptr.cast());
                prop_assert!(l.usable >= new_size, "usable shrank below new size");
                l.pattern = pattern;
                check_no_overlap(&model, key, &l)?;
                fill(new_ptr, new_size, pattern);
                model.insert(key, l);
            }
        }
    }
    // Final sweep: every surviving object is intact and freeable.
    for (_, l) in model.drain() {
        verify(&l)?;
        free_one(&l);
    }
    // With everything freed, only the directory itself remains live.
    let live = global::with_allocator(|a| a.live_bytes()).unwrap();
    prop_assert!(live <= 64 << 10, "leak: {live} bytes live after freeing all objects");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 1000, ..ProptestConfig::default() })]

    #[test]
    fn global_front_end_matches_model(
        steps in proptest::collection::vec(step_strategy(), 1..40),
        pattern0 in any::<u8>(),
    ) {
        run_case(&steps, pattern0)?;
    }
}

// ---------------------------------------------------------------------------
// Pinned semantic corners
// ---------------------------------------------------------------------------

#[test]
fn zero_size_mallocs_get_unique_pointers() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _reset = Reset;
    global::init(fresh_pool(32 << 20), NvConfig::log()).unwrap();
    let a = nv_malloc(0);
    let b = nv_malloc(0);
    assert!(!a.is_null() && !b.is_null());
    assert_ne!(a, b, "malloc(0) pointers must be distinct");
    assert!(nv_usable_size(a) >= 1);
    nv_free(a);
    nv_free(b);
}

#[test]
fn align_greater_than_size_is_honoured() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _reset = Reset;
    global::init(fresh_pool(64 << 20), NvConfig::log()).unwrap();
    // Sub-page, page, and super-page (aligned-extent path) alignments.
    for align in [16usize, 64, 512, 4096, 8192, 65536] {
        let layout = Layout::from_size_align(8, align).unwrap();
        // SAFETY: non-zero size.
        let p = unsafe { GlobalNv.alloc(layout) };
        assert!(!p.is_null(), "alloc(8, {align}) failed");
        assert_eq!(p as usize % align, 0, "not {align}-aligned");
        fill(p, 8, 0xA5);
        // SAFETY: matching layout.
        unsafe { GlobalNv.dealloc(p, layout) };
    }
}

#[test]
fn realloc_shrink_and_slack_growth_stay_in_place() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _reset = Reset;
    global::init(fresh_pool(32 << 20), NvConfig::log()).unwrap();
    let p = nv_malloc(100);
    let usable = nv_usable_size(p);
    assert!(usable >= 100);
    fill(p.cast(), 100, 7);
    // Shrink: in place.
    assert_eq!(nv_realloc(p, 10), p);
    // Growth within granted capacity: in place.
    assert_eq!(nv_realloc(p, usable), p);
    // Growth past capacity: moves, contents preserved.
    let q = nv_realloc(p, usable + 1);
    assert!(!q.is_null() && q != p);
    for i in 0..100usize {
        // SAFETY: q is live with at least usable+1 bytes.
        assert_eq!(unsafe { q.cast::<u8>().add(i).read() }, 7u8.wrapping_add(i as u8));
    }
    nv_free(q);
}

#[test]
fn realloc_null_and_zero_follow_c_semantics() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _reset = Reset;
    global::init(fresh_pool(32 << 20), NvConfig::log()).unwrap();
    let p = nv_realloc(std::ptr::null_mut(), 32); // ≡ malloc(32)
    assert!(!p.is_null());
    assert!(nv_realloc(p, 0).is_null()); // ≡ free(p)
    assert!(nv_calloc(usize::MAX, 2).is_null(), "calloc overflow must fail");
}

#[test]
fn shim_returns_null_before_init_and_global_falls_back_to_system() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _reset = Reset;
    assert!(nv_malloc(64).is_null(), "shim must not serve before init");
    assert_eq!(nv_usable_size(std::ptr::null_mut()), 0);
    // GlobalAlloc must keep working (System fallback) so a binary with
    // #[global_allocator] boots before init runs.
    let layout = Layout::from_size_align(64, 8).unwrap();
    // SAFETY: non-zero size; freed below with the same layout.
    let p = unsafe { GlobalNv.alloc(layout) };
    assert!(!p.is_null());
    fill(p, 64, 3);
    // SAFETY: matching layout, System-served pointer routes to System.
    unsafe { GlobalNv.dealloc(p, layout) };
}

#[test]
fn shutdown_retires_heap_and_recovers_objects_on_reinit() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _reset = Reset;
    let pool = fresh_pool(32 << 20);
    let r = global::init(Arc::clone(&pool), NvConfig::log()).unwrap();
    assert!(r.created && r.recovered == 0);

    let keep = nv_malloc(200).cast::<u8>();
    let gone = nv_malloc(300);
    fill(keep, 200, 0x42);
    nv_free(gone);
    global::shutdown().unwrap();

    // The shim refuses while detached; stale frees are defined no-ops.
    assert!(nv_malloc(8).is_null());
    nv_free(keep.cast());

    // Re-attach the same image: shallow recovery, object carried over at
    // the same address (same pool, same base), contents intact.
    let r2 = global::init(Arc::clone(&pool), NvConfig::log()).unwrap();
    assert!(!r2.created && r2.normal_shutdown);
    assert_eq!(r2.recovered, 1);
    let rec = global::recovered_objects();
    assert_eq!(rec.len(), 1);
    let (p2, usable) = rec[0];
    assert_eq!(p2, keep);
    assert!(usable >= 200);
    for i in 0..200usize {
        // SAFETY: recovered object is live with ≥ 200 usable bytes.
        assert_eq!(unsafe { p2.add(i).read() }, 0x42u8.wrapping_add(i as u8));
    }
    nv_free(p2.cast());
}

#[test]
fn double_init_is_rejected() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _reset = Reset;
    global::init(fresh_pool(32 << 20), NvConfig::log()).unwrap();
    let err = global::init(fresh_pool(32 << 20), NvConfig::log()).unwrap_err();
    assert!(matches!(err, PmError::InvalidRequest(_)), "got {err:?}");
}

/// The GC variant leaves small allocations' destinations unflushed, and
/// every directory commit is such a destination: init refuses it with a
/// typed error, touches nothing, and leaves the front end uninitialized.
#[test]
fn init_refuses_the_gc_variant() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _reset = Reset;
    let pool = fresh_pool(32 << 20);
    let err = global::init(Arc::clone(&pool), NvConfig::gc()).unwrap_err();
    assert!(matches!(err, PmError::InvalidRequest(_)), "got {err:?}");
    assert!(!global::is_initialized());
    assert!(nv_malloc(8).is_null());
    assert_eq!(pool.read_u64(0), 0, "the refused pool was formatted");
    // The refusal holds no sentinel: a LOG init on the same pool works.
    global::init(pool, NvConfig::log()).unwrap();
}

// ---------------------------------------------------------------------------
// Persistence cost
// ---------------------------------------------------------------------------

/// A virtual-clock pool: the latency model classifies every flushed line,
/// so reflushes are counted.
fn virtual_pool() -> Arc<PmemPool> {
    PmemPool::new(PmemConfig::default().pool_size(32 << 20))
}

/// Flushes and fences `f` adds to `pool`.
fn persist_cost(pool: &PmemPool, f: impl FnOnce()) -> (u64, u64) {
    let (flushes, fences) = (pool.stats().flushes(), pool.stats().fences());
    f();
    (pool.stats().flushes() - flushes, pool.stats().fences() - fences)
}

/// Application slots of the churn below.
const CHURN_SLOTS: usize = 64;

/// A seeded churn as `(slot, size)` steps: a step frees the slot when it
/// is live and allocates `size` bytes into it otherwise. Sizes follow the
/// small part of `fig_global`'s mix, 16–2 048 B.
fn churn_steps(seed: u64, n: usize) -> Vec<(usize, usize)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n).map(|_| (rng.gen_range(0..CHURN_SLOTS), rng.gen_range(16..2048))).collect()
}

/// Each shim op persists exactly what the allocator's own op persists:
/// after a warm-up, `nv_malloc(64)` adds the flushes and fences of a
/// native `malloc_to(64, dest)` and `nv_free` those of `free_from`, and a
/// seeded churn through the shim reflushes no more lines than the same
/// churn on native slots. The native slots sit 16 B apart, four to a line
/// like the directory's pairs, so the comparison isolates the shim's
/// choice of pair (first-in, first-out over an interleaved page) against
/// an application picking its own slot. (Against slots a full line apart,
/// where every reflush is the allocator's own, such churns reflush
/// somewhat more lines through the shim, 24–48 against 21–41 over 30
/// seeds, because four pairs share a line.)
#[test]
fn shim_ops_persist_exactly_what_the_allocator_persists() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _reset = Reset;
    let shim = virtual_pool();
    global::init(Arc::clone(&shim), NvConfig::log()).unwrap();
    let native = virtual_pool();
    let a = NvAllocator::create(Arc::clone(&native), NvConfig::log()).unwrap();
    let mut t = a.thread();
    let dest = |slot: usize| a.root_offset(2 * slot);

    // Warm-up: 64-byte blocks sit in both tcaches, and the shim's free
    // queue holds pairs.
    let warm: Vec<_> = (0..8).map(|_| nv_malloc(64)).collect();
    warm.into_iter().for_each(|p| nv_free(p));
    for s in 0..8 {
        t.malloc_to(64, dest(s)).unwrap();
    }
    for s in 0..8 {
        t.free_from(dest(s)).unwrap();
    }

    let mut p = std::ptr::null_mut();
    let shim_malloc = persist_cost(&shim, || p = nv_malloc(64));
    let native_malloc = persist_cost(&native, || {
        t.malloc_to(64, dest(0)).unwrap();
    });
    assert!(!p.is_null());
    assert_eq!(shim_malloc, native_malloc, "(flushes, fences) of nv_malloc vs malloc_to");
    let shim_free = persist_cost(&shim, || nv_free(p));
    let native_free = persist_cost(&native, || t.free_from(dest(0)).unwrap());
    assert_eq!(shim_free, native_free, "(flushes, fences) of nv_free vs free_from");

    let steps = churn_steps(0x5EED, 1000);
    let r0 = shim.stats().reflushes();
    let mut live = [std::ptr::null_mut::<core::ffi::c_void>(); CHURN_SLOTS];
    for &(slot, size) in &steps {
        if live[slot].is_null() {
            live[slot] = nv_malloc(size);
            assert!(!live[slot].is_null());
        } else {
            nv_free(std::mem::replace(&mut live[slot], std::ptr::null_mut()));
        }
    }
    let shim_reflushes = shim.stats().reflushes() - r0;
    let r0 = native.stats().reflushes();
    for &(slot, size) in &steps {
        if native.read_u64(dest(slot)) == 0 {
            t.malloc_to(size, dest(slot)).unwrap();
        } else {
            t.free_from(dest(slot)).unwrap();
        }
    }
    let native_reflushes = native.stats().reflushes() - r0;
    assert!(
        shim_reflushes <= native_reflushes,
        "shim churn reflushed {shim_reflushes} lines, native slots {native_reflushes}"
    );
}
