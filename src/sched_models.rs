//! Concurrency models for the deterministic schedule explorer.
//!
//! Each model is a closure the explorer ([`nvalloc_sched::explore`])
//! re-executes once per schedule: it builds a fresh emulated-PM heap,
//! runs a small number of logical threads through one of the allocator's
//! lock-free protocols, and asserts the protocol's invariants. The model
//! body also composes with the persist-ordering sanitizer: the racy
//! phase runs inside a pmsan *window*, and for every explored
//! interleaving the at-fence crash images of that window are enumerated
//! and each one must recover to a doctor-clean heap. A schedule fails on
//! a detected data race, a deadlock, an assertion, or a dirty recovery —
//! all reported with a replayable trace/seed.
//!
//! Three models cover the three cross-thread protocols of the metadata
//! paths (DESIGN.md §16):
//!
//! * [`remote_vs_retire`] — a cross-arena free (slab-gate pin, remote
//!   Treiber push) racing the owner arena's drain/morph/retire (gate
//!   exclusive lock, frame scrub).
//! * [`rtree_install_vs_lookup`] — radix-tree node installation (extent
//!   malloc) racing lock-free lookups through shared interior nodes.
//! * [`global_double_init`] — two threads racing the global slot
//!   directory's `init` CAS handshake; exactly one may win, and the
//!   loser must get a typed error, never a second heap.
//!
//! The models are shared by the integration tests (`tests/sched_*.rs`)
//! and the `sched_explore` CI harness binary.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

use nvalloc::api::PmAllocator;
use nvalloc::{doctor, global, NvAllocator, NvConfig, LARGE_MIN};
use nvalloc_pmem::{CrashImage, LatencyMode, PmemConfig, PmemPool};
use nvalloc_sched as sched;
use sched::{ExploreOptions, ExploreReport};

/// Crash images enumerated (newest fences first) per explored schedule.
/// Each image costs a full recover + doctor audit, so the cap bounds the
/// per-schedule work; the window's most recent fences are exactly the
/// ones the racy phase dirtied.
pub const MAX_CRASH_IMAGES: usize = 2;

/// Pool size used by every model. Every explored schedule clones this
/// pool once per crash image, so it is the single biggest lever on
/// per-schedule wall time; 8 MiB fits two arenas plus a `LARGE_MIN`-and-
/// change extent with room to spare.
const POOL_BYTES: usize = 8 << 20;

fn crash_pool() -> Arc<PmemPool> {
    PmemPool::new(
        PmemConfig::default()
            .pool_size(POOL_BYTES)
            .latency_mode(LatencyMode::Off)
            .crash_tracking(true)
            .pmsan(true),
    )
}

/// The pmsan gate every model applies after closing its window.
fn assert_pmsan_clean(pool: &PmemPool, what: &str) {
    assert_eq!(
        pool.pmsan_total(),
        0,
        "{what}: persist-ordering violations: {}",
        pool.pmsan_report().expect("pmsan pool").to_json()
    );
}

/// Recover `img` and require a doctor-clean heap: the crash-consistency
/// half of every model's per-interleaving check.
fn recover_clean(img: CrashImage, cfg: &NvConfig, what: &str) {
    let p = PmemPool::from_crash_image(img);
    NvAllocator::recover(Arc::clone(&p), cfg.clone())
        .unwrap_or_else(|e| panic!("{what}: recovery failed: {e}"));
    let rep = doctor::audit_pool(&p, cfg);
    assert!(rep.clean(), "{what}: doctor violations: {:?}", rep.violations);
}

/// Enumerate the window's at-fence crash images and require each to
/// recover doctor-clean, plus the would-crash-now image of the live pool.
fn check_crash_images(
    pool: &Arc<PmemPool>,
    window: &nvalloc_pmem::PmsanWindow,
    cfg: &NvConfig,
    model: &str,
) {
    for (i, img) in pool.pmsan_window_images(window, MAX_CRASH_IMAGES).into_iter().enumerate() {
        recover_clean(img, cfg, &format!("{model}: window image {i}"));
    }
    recover_clean(pool.crash(), cfg, &format!("{model}: final image"));
}

/// Model (a): a cross-arena free racing the owner arena's slab
/// drain/morph/retire.
///
/// Setup (single-threaded, outside the recorded schedule space): a
/// two-arena heap, one thread handle per arena, one block owned by
/// arena 0. The racy phase: thread 1 (arena 1) frees that block — the
/// lock-free fast path pins the slab gate, completes the persistent
/// transitions, and pushes onto arena 0's remote-free queue — while
/// thread 2 (arena 0) allocates from the same class (tcache refill →
/// remote drain → morph attempt) and then drains every free list, which
/// takes slab gates exclusively and may retire frames.
pub fn remote_vs_retire(opts: &ExploreOptions) -> ExploreReport {
    sched::explore("remote_vs_retire", opts, || {
        let cfg = NvConfig::log().arenas(2);
        let pool = crash_pool();
        let alloc = NvAllocator::create(Arc::clone(&pool), cfg.clone()).expect("create");
        let mut t0 = alloc.thread(); // least-loaded assignment: arena 0
        let t1 = alloc.thread(); // arena 1
        let r0 = alloc.root_offset(0);
        let r1 = alloc.root_offset(1);
        let blk = t0.malloc_to(256, r0).expect("setup malloc");
        assert_eq!(pool.read_u64(r0), blk);

        pool.pmsan_window_begin();
        let freer = sched::spawn(move || {
            let mut t1 = t1;
            // Cross-arena: the block's slab belongs to arena 0, t1 sits
            // in arena 1 → gate pin + remote Treiber push.
            t1.free_from(r0).expect("cross-arena free");
        });
        let a2 = alloc.clone();
        let owner = sched::spawn(move || {
            let mut t0 = t0;
            t0.malloc_to(256, r1).expect("owner malloc");
            // Drain remote queues and retire empty frames: takes each
            // slab gate exclusively, racing the freer's pin.
            a2.drain_free_lists();
        });
        freer.join();
        owner.join();
        let w = pool.pmsan_window_end();

        assert_pmsan_clean(&pool, "remote_vs_retire");
        assert_eq!(pool.read_u64(r0), 0, "freed slot must be cleared");
        assert_ne!(pool.read_u64(r1), 0, "owner malloc must be published");
        check_crash_images(&pool, &w, &cfg, "remote_vs_retire");
    })
}

/// Model (b): radix-tree installation racing lock-free lookup.
///
/// Thread 1 allocates a large extent, which CAS-installs fresh interior
/// and leaf nodes into the address radix tree; thread 2 concurrently
/// resolves addresses through the same tree (`usable_size` walks it
/// lock-free). The lookup must always see either the old tree or the
/// fully initialized new nodes — the vector clocks verify the Release
/// publish / Acquire load edges, and the plain-access traces catch any
/// deref of a half-built node.
pub fn rtree_install_vs_lookup(opts: &ExploreOptions) -> ExploreReport {
    sched::explore("rtree_install_vs_lookup", opts, || {
        let cfg = NvConfig::log().arenas(1);
        let pool = crash_pool();
        let alloc = NvAllocator::create(Arc::clone(&pool), cfg.clone()).expect("create");
        let mut t0 = alloc.thread();
        let r0 = alloc.root_offset(0);
        let r1 = alloc.root_offset(1);
        let small = t0.malloc_to(256, r0).expect("setup malloc");

        pool.pmsan_window_begin();
        let installer = sched::spawn(move || {
            let mut t0 = t0;
            // Extent path: installs rtree ranges for the new extent.
            t0.malloc_to(LARGE_MIN + 4096, r1).expect("extent malloc");
        });
        let a2 = alloc.clone();
        let reader = sched::spawn(move || {
            for probe in 0..2u64 {
                // The settled mapping must stay visible throughout.
                let sz = a2.usable_size(small);
                assert!(
                    sz.is_some_and(|s| s >= 256),
                    "usable_size(settled block) regressed to {sz:?}"
                );
                // Probe addresses that traverse interior nodes the
                // installer may be publishing right now; any answer is
                // fine, dereferencing a half-built node is not.
                let _ = a2.usable_size(small + probe * (1 << 20));
            }
        });
        installer.join();
        reader.join();
        let w = pool.pmsan_window_end();

        assert_pmsan_clean(&pool, "rtree_install_vs_lookup");
        let ext = pool.read_u64(r1);
        assert_ne!(ext, 0, "extent malloc must be published");
        assert!(
            alloc.usable_size(ext).is_some_and(|s| s >= LARGE_MIN + 4096),
            "installed extent must resolve through the rtree"
        );
        check_crash_images(&pool, &w, &cfg, "rtree_install_vs_lookup");
    })
}

/// Model (c): the global slot directory's double-init handshake.
///
/// Two threads race `global::init` on the same pool. The `INITIALIZING`
/// sentinel CAS must admit exactly one winner; the loser gets a typed
/// error (never a second heap, never a hang). The winner's heap must
/// serve a malloc/free round trip, and every at-fence crash image of the
/// window — including images where the directory format is half done —
/// must recover doctor-clean.
///
/// Uses the process-global front end, so callers must serialize
/// explorations of this model against any other test touching
/// `nvalloc::global` state in the same process.
pub fn global_double_init(opts: &ExploreOptions) -> ExploreReport {
    sched::explore("global_double_init", opts, || {
        // Fresh process-global state for this schedule (the previous
        // schedule may have been abandoned mid-init).
        // SAFETY: exploration serializes all access to the global front
        // end; no pointer from a prior incarnation is used again.
        unsafe { global::reset_unchecked() };
        // One arena: the raced protocol is the directory CAS handshake,
        // not arena setup, and init length sets the DFS depth.
        let cfg = NvConfig::log().arenas(1);
        let pool = crash_pool();
        pool.pmsan_window_begin();

        // 0 = pending, 1 = won init, 2 = typed error. Plain std atomics:
        // result mailboxes, not part of the modelled protocol.
        let outcome_a = Arc::new(AtomicU8::new(0));
        let outcome_b = Arc::new(AtomicU8::new(0));
        // Each contender's hook runs *while the INITIALIZING sentinel is
        // parked* and waits for the other contender to terminate. This
        // collapses behaviorally equivalent interleavings: the sentinel
        // cannot change until the winner publishes, so a loser CAS
        // landing anywhere inside the winner's heap creation observes
        // exactly the same parked state — parking the winner until the
        // loser finishes explores one representative of that class
        // instead of one schedule per creation step. Only the CAS winner
        // ever runs its hook, so the wait cannot deadlock: the loser
        // takes the typed-error return without entering the hook.
        let (p1, c1) = (Arc::clone(&pool), cfg.clone());
        let (o1, peer1) = (Arc::clone(&outcome_a), Arc::clone(&outcome_b));
        let h1 = sched::spawn(move || {
            let r = global::init_with_hook(p1, c1, move || {
                while peer1.load(Ordering::Relaxed) == 0 {
                    sched::spin_wait();
                }
            });
            o1.store(if r.is_ok() { 1 } else { 2 }, Ordering::Relaxed);
        });
        let (p2, c2) = (Arc::clone(&pool), cfg.clone());
        let (o2, peer2) = (Arc::clone(&outcome_b), Arc::clone(&outcome_a));
        let h2 = sched::spawn(move || {
            let r = global::init_with_hook(p2, c2, move || {
                while peer2.load(Ordering::Relaxed) == 0 {
                    sched::spin_wait();
                }
            });
            o2.store(if r.is_ok() { 1 } else { 2 }, Ordering::Relaxed);
        });
        h1.join();
        h2.join();

        let (a, b) = (outcome_a.load(Ordering::Relaxed), outcome_b.load(Ordering::Relaxed));
        assert!(a != 0 && b != 0, "both initializers must terminate");
        assert!((a == 1) ^ (b == 1), "exactly one init may win (outcomes {a}/{b}: 1=won, 2=error)");
        assert!(global::is_initialized(), "winner's heap must be serving");
        let ptr = global::nv_malloc(100);
        assert!(!ptr.is_null(), "surviving directory must serve mallocs");
        global::nv_free(ptr);

        let w = pool.pmsan_window_end();
        assert_pmsan_clean(&pool, "global_double_init");
        check_crash_images(&pool, &w, &cfg, "global_double_init");
        // SAFETY: as above; drops the winner's heap before the next
        // schedule builds its own.
        unsafe { global::reset_unchecked() };
    })
}

/// Bounded-exhaustive options shared by the model tests and the CI
/// harness: DFS with a CHESS preemption bound — every schedule reachable
/// with at most `bound` forced context switches is covered. The bound is
/// per-model ([`default_bound`]) because the models' branchy-decision
/// counts differ by 30x and the DFS space is roughly `decisions ^ bound`.
pub fn exhaustive_opts(max_schedules: usize, bound: usize) -> ExploreOptions {
    let mut o = ExploreOptions::exhaustive(max_schedules);
    o.preemption_bound = Some(bound);
    o
}

/// The preemption bound the models' bounded-exhaustive CI pass uses.
///
/// The allocator models keep two threads runnable across whole
/// allocation paths (hundreds of branchy decisions per schedule, each
/// schedule costing a heap setup plus crash-image recoveries), so 1 is
/// the largest bound whose space completes within a CI budget — measured
/// spaces: remote 1193 schedules, rtree 535, global 911 (bands in
/// `ci/sched_thresholds.json`). The seeded PCT pass layers deeper
/// preemption patterns on top, and the structure-level queue models in
/// `tests/sched_mutation.rs` run a full bound-2 space.
pub const DEFAULT_BOUND: usize = 1;

/// Seeded PCT options shared by the model tests and the CI harness. The
/// length hint matches the models' typical branchy-decision count so
/// priority-change points land inside the race windows.
pub fn pct_opts(seed: u64, schedules: usize) -> ExploreOptions {
    let mut o = ExploreOptions::pct(seed, schedules);
    o.pct_length_hint = 64;
    o
}
