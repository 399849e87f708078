//! `GlobalAlloc` front end and C-ABI `malloc` shim over [`NvAllocator`].
//!
//! NVAlloc's native API is *slot-based*: `malloc_to(size, dest)` installs a
//! block offset at a persistent 8-byte slot, and `free_from(dest)` frees
//! whatever that slot names. Real programs, however, speak `malloc`/`free`
//! with raw pointers and no slots. This module bridges the two worlds:
//!
//! * [`GlobalNv`] implements [`std::alloc::GlobalAlloc`] so a binary can put
//!   `#[global_allocator] static A: GlobalNv = GlobalNv;` at its top and
//!   have *every* Rust heap allocation served from the persistent pool.
//! * [`nv_malloc`] / [`nv_free`] / [`nv_realloc`] / [`nv_calloc`] /
//!   [`nv_usable_size`] are C-ABI entry points with C `malloc` semantics.
//!
//! # The slot directory
//!
//! The pointer↔slot translation is itself crash-consistent, built from the
//! allocator's own primitives. Root slot 0 names a 64-byte **meta block**:
//!
//! ```text
//! word 0  GLOBAL_MAGIC          word 2  first slot-page link (a dest)
//! word 1  LAYOUT_VERSION        word 3  last zeroed slot page
//! ```
//!
//! Slot pages are 4 KiB blocks chained through their word 0. Each link word
//! is the `malloc_to` dest of the next page, so the allocator's commit of a
//! page *is* its link, and the page's WAL entry names a word that keeps
//! holding it. Growth commits the new page into the tail link, zeroes it,
//! and then records it in meta word 3; only after that are its pairs
//! handed out. Attach therefore zeroes a linked page found past the one
//! word 3 names (a grow that crashed before zeroing handed out no slot),
//! records it, and stops the walk there.
//!
//! The rest of a page is 255 slot *pairs*, both words in one 64-byte line:
//! word A is the dest the allocator installs a block offset into (the
//! allocation's commit point), word B publishes the *user* offset. Attach
//! classifies every pair:
//!
//! * slot free          ⇔ A == 0, whatever B holds: a free leaves B stale.
//! * owned, unpublished ⇔ A ≠ 0, B == 0 — a crash hit between the commit
//!   and the publication; attach *frees* the block (the application never
//!   saw the pointer), so nothing leaks and nothing is double-owned.
//! * live at the base   ⇔ A ≠ 0, B == 1.
//! * live at an offset  ⇔ A ≠ 0, A ≤ B < A + granted (alignment padding).
//!
//! Live objects come back through [`recovered_objects`].
//!
//! An allocation whose user offset is the block base (every [`nv_malloc`],
//! and [`GlobalNv`] with align ≤ 8) stores B = 1 with a plain store
//! *before* `malloc_to`. The allocator's one destination flush of A's line
//! then commits and publishes the object together, so such an op persists
//! exactly what the allocator's own `malloc_to` persists, and a stale B can
//! never pair with the new block. Three steps — persist B = 0, commit,
//! persist B = user — remain only where an unpublished window is needed: a
//! moving [`nv_realloc`] copies the payload inside it, [`nv_calloc`] makes
//! its zero fill durable inside it, and padded or aligned-extent layouts
//! learn the user offset only from the grant.
//!
//! Free pairs are reused first-in, first-out, and a new page's pairs join
//! the queue one line after another (`pairs`). A free flushes its pair's
//! line; handing that pair, or a neighbour on its line, to the very next
//! allocation would flush the line again within the paper's reflush
//! distance (§3.1), at two to three times the cost of a flush to a cold
//! line.
//!
//! # Volatility boundary
//!
//! The emulated pool lives in DRAM, so `GlobalAlloc` hands out real host
//! pointers (`pool.base_ptr() + offset`). Payload stores through those
//! pointers are **volatile-only**: they bypass the latency model, the
//! persist-ordering sanitizer, and crash-image tracking. Code that needs
//! its payload to survive a simulated crash must write it through the pool
//! API (as the crash tests do); the *directory* updates and the
//! `nv_realloc` copy path always do.
//!
//! # Re-entrancy and lifecycle
//!
//! The front end's own bookkeeping (hash map, free-pair queue) allocates
//! through the Rust global allocator — which may be `GlobalNv` itself. A
//! thread-local guard detects re-entry and routes those internal (and any
//! pre-[`init`]) allocations to [`std::alloc::System`]; `dealloc` routes by
//! pointer range, so the two heaps never cross. [`shutdown`] retires the
//! active state onto a leaked list instead of dropping it: stale pointers
//! into a retired pool stay dereferenceable, and freeing them is a defined
//! no-op.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet, VecDeque};
use std::ptr::null_mut;
use std::sync::Arc;

use crate::sync::{trace_forget, trace_read, trace_write, AtomicPtr, AtomicU64, Ordering};

use nvalloc_pmem::{FlushKind, LatencyMode, PmError, PmOffset, PmResult, PmemConfig, PmemPool};
use parking_lot::Mutex;

use crate::api::{AllocThread, PmAllocator};
use crate::front::POOL_MAGIC;
use crate::large::{HUGE_MIN, PAGE};
use crate::{NvAllocator, NvConfig, Variant};

/// Magic tag in word 0 of the global directory's meta block ("NVGLOBL1").
pub const GLOBAL_MAGIC: u64 = 0x4E56_474C_4F42_4C31;
/// Version of the slot-directory layout described in the module docs.
/// Attaching to a pool recorded with any other version is refused.
/// Version 1 cleared B on every free and staged new pages in meta word 3;
/// its images are refused rather than misread.
pub const LAYOUT_VERSION: u64 = 2;

/// Word B of a pair published at its block base. Never a user offset:
/// those are 8-byte aligned.
const AT_BASE: u64 = 1;

/// Meta block size (one size-64 class block).
const META_BYTES: usize = 64;
/// Slot-page size: one 4 KiB block, word 0 link + word 1 reserved +
/// 255 × (A, B).
const PAGE_BYTES: usize = 4096;

// ---------------------------------------------------------------------------
// Global handshake
// ---------------------------------------------------------------------------

/// The one process-wide front-end state (leaked once initialized).
static SHARED: AtomicPtr<GlobalState> = AtomicPtr::new(null_mut());
/// Sentinel parked in [`SHARED`] while one thread runs [`init`]; any
/// concurrent initializer loses the CAS and gets a typed error instead of
/// a second heap.
const INITIALIZING: *mut GlobalState = usize::MAX as *mut GlobalState;
/// Head of the retired-state list (states detached by [`shutdown`], kept
/// alive so stale pointers into their pools remain valid).
static RETIRED_HEAD: AtomicPtr<GlobalState> = AtomicPtr::new(null_mut());
/// Monotonic epoch: distinguishes successive [`init`] generations so
/// cached per-thread allocator handles can detect staleness.
static EPOCHS: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Re-entrancy guard: true while this thread is inside front-end code.
    static GUARD: Cell<bool> = const { Cell::new(false) };
    /// Cached per-thread allocator handle (epoch-tagged).
    static TCTX: RefCell<Option<ThreadCtx>> = const { RefCell::new(None) };
}

struct ThreadCtx {
    epoch: u64,
    t: Box<dyn AllocThread>,
}

/// A live object tracked by the directory.
#[derive(Debug, Clone, Copy)]
struct Obj {
    /// Dest slot (word A) holding the block offset.
    slot: PmOffset,
    /// Block base offset (what the allocator granted).
    block: PmOffset,
    /// Bytes usable at the user offset: granted size minus alignment
    /// padding. Bounds realloc's copy and in-place growth.
    usable: usize,
}

struct Inner {
    /// Offsets of every slot page, in chain order.
    pages: Vec<PmOffset>,
    /// Dest offsets (word A) of currently free slot pairs, reused
    /// first-in, first-out (module docs).
    free_slots: VecDeque<PmOffset>,
    /// Live objects keyed by *user* offset (the published word B value).
    objects: HashMap<u64, Obj>,
}

struct GlobalState {
    alloc: NvAllocator,
    pool: Arc<PmemPool>,
    /// Host address of pool offset 0 (`pool.base_ptr() as usize`).
    base: usize,
    /// Pool size in bytes; `[base, base + size)` is this heap's range.
    size: usize,
    /// Meta block offset (word layout in the module docs).
    meta: PmOffset,
    epoch: u64,
    inner: Mutex<Inner>,
    /// Objects re-exposed by the attach scan, frozen at init time.
    recovered: Vec<(u64, usize)>,
    /// Next state in the retired list (null while active).
    next_retired: AtomicPtr<GlobalState>,
}

/// What [`init`] found and did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InitReport {
    /// True when the pool was freshly formatted; false when an existing
    /// image was recovered and attached.
    pub created: bool,
    /// Whether the recovered image was closed by an orderly
    /// [`shutdown`] (always true for a fresh pool). `false` means deep
    /// recovery ran (WAL replay / GC).
    pub normal_shutdown: bool,
    /// Published objects carried over from the previous incarnation
    /// (see [`recovered_objects`]).
    pub recovered: usize,
    /// Owned-but-unpublished blocks the attach scan freed: allocations
    /// whose crash hit between commit and publication.
    pub reclaimed: usize,
}

/// Outcome of a single front-end operation that the C shim must surface
/// as a hard failure rather than a return code.
fn die(what: &str, detail: &dyn std::fmt::Display) -> ! {
    // Abort, not panic: the C ABI has no unwinding, and a corrupt heap
    // must not keep serving. Mirrors glibc's abort-on-heap-corruption.
    eprintln!("nvalloc-global: fatal: {what}: {detail}");
    std::process::abort();
}

fn state() -> Option<&'static GlobalState> {
    let p = SHARED.load(Ordering::Acquire);
    if p.is_null() || p == INITIALIZING {
        return None;
    }
    trace_read(p, "global-state");
    // SAFETY: any non-sentinel pointer stored in SHARED came from
    // Box::leak in init() and is never freed (shutdown moves it to the
    // retired list, still leaked), so it is valid for 'static.
    Some(unsafe { &*p })
}

/// Run `f` with the re-entrancy guard held. Returns `None` when this
/// thread is already inside the front end (internal allocation) or its
/// TLS is being torn down — callers fall back to `System` / a temporary
/// handle.
fn with_guard<R>(f: impl FnOnce() -> R) -> Option<R> {
    GUARD
        .try_with(|g| {
            if g.get() {
                return None;
            }
            g.set(true);
            let r = f();
            g.set(false);
            Some(r)
        })
        .unwrap_or(None)
}

/// Run `f` on this thread's cached allocator handle, creating or
/// refreshing it if absent or from a previous epoch. Falls back to a
/// temporary handle during TLS teardown.
fn with_thread<R>(st: &GlobalState, f: impl FnOnce(&mut dyn AllocThread) -> R) -> R {
    let mut f = Some(f);
    let made = TCTX.try_with(|c| {
        let mut slot = c.borrow_mut();
        let stale = !matches!(slot.as_ref(), Some(ctx) if ctx.epoch == st.epoch);
        if stale {
            // Dropping a stale ctx flushes its tcache into the retired
            // pool image, which is inert; harmless by design.
            *slot = Some(ThreadCtx { epoch: st.epoch, t: st.alloc.thread() });
        }
        (f.take().expect("with_thread closure consumed twice"))(
            slot.as_mut().expect("ctx just ensured").t.as_mut(),
        )
    });
    match made {
        Ok(r) => r,
        Err(_) => {
            let mut t = st.alloc.thread();
            (f.take().expect("with_thread closure consumed twice"))(t.as_mut())
        }
    }
}

// ---------------------------------------------------------------------------
// init / attach / shutdown
// ---------------------------------------------------------------------------

/// Install `pool` as the process-wide heap behind [`GlobalNv`] and the C
/// shim. Formats a fresh pool (no [`POOL_MAGIC`]) or recovers an existing
/// image — deep (WAL replay / GC) after a crash, shallow after an orderly
/// [`shutdown`] — then validates the slot directory's magic and layout
/// version before exposing it.
///
/// # Errors
/// * [`PmError::InvalidRequest`] if another thread is initializing or the
///   front end is already initialized, or for [`Variant::Gc`], whose small
///   allocations leave the destination unflushed: the directory's root
///   word, page links and word A are all such destinations, and word A's
///   flush is what commits and publishes a pair.
/// * [`PmError::Corrupt`] for a root 0 that names no live meta block, a
///   directory magic/version mismatch or a damaged directory (the
///   sentinel is released, so a later `init` with the right pool works).
/// * Any allocator create/recover error, likewise releasing the sentinel.
pub fn init(pool: Arc<PmemPool>, cfg: NvConfig) -> PmResult<InitReport> {
    init_with_hook(pool, cfg, || ())
}

/// [`init`] with a hook run *while the `INITIALIZING` sentinel is parked*
/// in the shared slot — the schedule point the double-init race test
/// forces a concurrent `init` through. Not part of the public contract.
#[doc(hidden)]
pub fn init_with_hook(
    pool: Arc<PmemPool>,
    cfg: NvConfig,
    hook: impl FnOnce(),
) -> PmResult<InitReport> {
    if cfg.variant == Variant::Gc {
        return Err(PmError::InvalidRequest(
            "the global front end needs persisted destinations; the GC variant does not flush them",
        ));
    }
    match SHARED.compare_exchange(null_mut(), INITIALIZING, Ordering::AcqRel, Ordering::Acquire) {
        Ok(_) => {}
        Err(cur) if cur == INITIALIZING => {
            return Err(PmError::InvalidRequest(
                "global allocator is being initialized by another thread",
            ));
        }
        Err(_) => {
            return Err(PmError::InvalidRequest("global allocator already initialized"));
        }
    }
    hook();
    let r = with_guard(|| attach(pool, cfg)).expect("init called from inside the front end");
    match r {
        Ok((st, report)) => {
            let leaked: &'static mut GlobalState = Box::leak(Box::new(st));
            // The Release half of this store is the only edge ordering the
            // plain construction of `st` before readers' derefs in state().
            trace_write(leaked, "global-state");
            SHARED.store(leaked, Ordering::Release);
            Ok(report)
        }
        Err(e) => {
            // Release the sentinel so a corrected init can run later.
            SHARED.store(null_mut(), Ordering::Release);
            Err(e)
        }
    }
}

/// Convenience for examples and binaries: build a fresh latency-off pool
/// of `bytes` and [`init`] on it with the LOG variant.
pub fn init_default(bytes: usize) -> PmResult<InitReport> {
    let pool = PmemPool::new(PmemConfig::default().pool_size(bytes).latency_mode(LatencyMode::Off));
    init(pool, NvConfig::log())
}

fn attach(pool: Arc<PmemPool>, cfg: NvConfig) -> PmResult<(GlobalState, InitReport)> {
    let fresh = pool.read_u64(0) != POOL_MAGIC;
    let (alloc, report) = if fresh {
        let a = NvAllocator::create(Arc::clone(&pool), cfg)?;
        (a, None)
    } else {
        let (a, r) = NvAllocator::recover(Arc::clone(&pool), cfg)?;
        (a, Some(r))
    };
    let root0 = alloc.root_offset(0);
    let mut inner =
        Inner { pages: Vec::new(), free_slots: VecDeque::new(), objects: HashMap::new() };
    let mut recovered = Vec::new();
    let mut reclaimed = 0usize;
    let mut t = alloc.thread();

    let root = if fresh { 0 } else { pool.read_u64(root0) };
    // Every read below goes through root 0: it must name a live block
    // that holds the meta words.
    if root != 0 && alloc.usable_size(root).is_none_or(|n| n < META_BYTES) {
        return Err(PmError::Corrupt("global directory root names no meta block"));
    }
    let meta = if root == 0 {
        // Fresh pool — or a crash hit init before the directory's meta
        // block committed at root 0. Either way nothing was ever
        // reachable through the directory, so (re)format it.
        format_directory(&pool, t.as_mut(), root0, &mut inner)?
    } else if pool.read_u64(root) == 0 {
        // Meta block committed but the magic — the directory's format
        // commit point, written last — did not. Discard and re-format.
        t.free_from(root0)?;
        format_directory(&pool, t.as_mut(), root0, &mut inner)?
    } else {
        let meta = root;
        if pool.read_u64(meta) != GLOBAL_MAGIC {
            return Err(PmError::Corrupt("global directory magic mismatch"));
        }
        if pool.read_u64(meta + 8) != LAYOUT_VERSION {
            return Err(PmError::Corrupt("global directory layout version unsupported"));
        }
        // Walk the page chain and classify every slot pair; every check
        // runs before the first write below. Each link must name a live
        // slot-page block not yet on the chain, so a damaged chain can
        // neither loop nor leave the heap, and no block may be named
        // twice: the meta block, a page or a pair's block freed or
        // handed out once would still be reachable through the other.
        let mut named = HashSet::from([meta]);
        let last_zeroed = pool.read_u64(meta + 24);
        let mut past_zeroed = last_zeroed == 0;
        let mut unzeroed = None;
        let mut unpublished = Vec::new();
        let mut link = meta + 16;
        loop {
            let page = pool.read_u64(link);
            if page == 0 {
                break;
            }
            if alloc.usable_size(page) != Some(PAGE_BYTES) || !named.insert(page) {
                return Err(PmError::Corrupt("slot directory page chain is damaged"));
            }
            inner.pages.push(page);
            if past_zeroed {
                // A grow committed this page but crashed before recording
                // it zeroed: none of its pairs was handed out, and its own
                // link word is still whatever the block held.
                unzeroed = Some(page);
                break;
            }
            for a_off in pairs(page) {
                let block = pool.read_u64(a_off);
                if block == 0 {
                    inner.free_slots.push_back(a_off);
                    continue;
                }
                let granted = alloc.usable_size(block).ok_or(PmError::Corrupt(
                    "slot directory names a block the allocator does not own",
                ))?;
                if !named.insert(block) {
                    return Err(PmError::Corrupt("slot directory names a block twice"));
                }
                let user = match pool.read_u64(a_off + 8) {
                    0 => {
                        // Crash between commit and publication: the
                        // pointer never escaped, reclaim the block.
                        unpublished.push(a_off);
                        continue;
                    }
                    AT_BASE => block,
                    u if u >= block && u < block + granted as u64 => u,
                    _ => return Err(PmError::Corrupt("published offset outside its block")),
                };
                let usable = (block as usize + granted) - user as usize;
                inner.objects.insert(user, Obj { slot: a_off, block, usable });
                recovered.push((user, usable));
            }
            past_zeroed |= page == last_zeroed;
            link = page;
        }
        if !past_zeroed {
            return Err(PmError::Corrupt("slot directory page chain is damaged"));
        }
        for &a_off in &unpublished {
            t.free_from(a_off)?;
            inner.free_slots.push_back(a_off);
        }
        reclaimed = unpublished.len();
        if let Some(page) = unzeroed {
            zero_page(&pool, t.as_mut(), meta, page);
            inner.free_slots.extend(pairs(page));
        }
        meta
    };
    drop(t);

    let created = report.is_none();
    let normal_shutdown = report.as_ref().is_none_or(|r| r.normal_shutdown);
    let st = GlobalState {
        base: pool.base_ptr() as usize,
        size: pool.size(),
        meta,
        alloc,
        pool,
        // sched: ordering-ok(monotonic ticket counter; carries no payload)
        epoch: EPOCHS.fetch_add(1, Ordering::Relaxed),
        inner: Mutex::new(inner),
        recovered,
        next_retired: AtomicPtr::new(null_mut()),
    };
    let report = InitReport { created, normal_shutdown, recovered: st.recovered.len(), reclaimed };
    Ok((st, report))
}

/// Format the slot directory on an otherwise-ready heap: commit the meta
/// block at root 0, state every word, publish the magic last (the format's
/// commit point), then grow the first slot page. Any crash prefix leaves a
/// state [`attach`] maps back to "no directory yet".
fn format_directory(
    pool: &PmemPool,
    t: &mut dyn AllocThread,
    root0: PmOffset,
    inner: &mut Inner,
) -> PmResult<PmOffset> {
    let meta = t.malloc_to(META_BYTES, root0)?;
    // The block may be recycled in principle; state every word before
    // the magic commit so the attach scan never reads garbage.
    pool.persist_u64(t.pm_mut(), meta + 8, LAYOUT_VERSION, FlushKind::Meta);
    pool.persist_u64(t.pm_mut(), meta + 16, 0, FlushKind::Meta);
    pool.persist_u64(t.pm_mut(), meta + 24, 0, FlushKind::Meta);
    pool.persist_u64(t.pm_mut(), meta, GLOBAL_MAGIC, FlushKind::Meta);
    grow(pool, t, meta, meta + 16, inner)?;
    Ok(meta)
}

/// Word-A offsets of `page`'s slot pairs, in the order they join the free
/// queue: position-in-line major, so consecutive pairs sit in different
/// lines and a fresh page's back-to-back allocations never flush one line
/// twice in a row (the interleaved mapping of paper §5.1).
fn pairs(page: PmOffset) -> impl Iterator<Item = PmOffset> {
    (0..64).step_by(16).flat_map(move |pos| {
        (pos..PAGE_BYTES as u64).step_by(64).filter(|&b| b >= 16).map(move |b| page + b)
    })
}

/// Grow the directory by one slot page hung off `link`: the tail page's
/// word 0, or meta word 2 for the first page. The page commits straight
/// into `link`, so its WAL entry names a word that keeps holding it, and
/// its pairs are handed out only once [`zero_page`] has recorded it.
/// Caller holds the directory lock.
fn grow(
    pool: &PmemPool,
    t: &mut dyn AllocThread,
    meta: PmOffset,
    link: PmOffset,
    inner: &mut Inner,
) -> PmResult<()> {
    let page = t.malloc_to(PAGE_BYTES, link)?;
    zero_page(pool, t, meta, page);
    inner.pages.push(page);
    inner.free_slots.extend(pairs(page));
    Ok(())
}

/// Zero a linked slot page (a recycled block could otherwise replay
/// garbage as live pairs after a crash), then record it as the last zeroed
/// page in meta word 3.
fn zero_page(pool: &PmemPool, t: &mut dyn AllocThread, meta: PmOffset, page: PmOffset) {
    pool.fill_bytes(page, PAGE_BYTES, 0);
    pool.flush(t.pm_mut(), page, PAGE_BYTES, FlushKind::Meta);
    pool.fence(t.pm_mut());
    pool.persist_u64(t.pm_mut(), meta + 24, page, FlushKind::Meta);
}

/// Detach and retire the active front end: quiesce deferred work, flush
/// this thread's cached handle, and mark the heap cleanly closed so the
/// next [`init`] takes the shallow recovery path. The state is moved to a
/// leaked retired list — pointers into the old pool stay dereferenceable
/// and freeing them becomes a no-op.
///
/// Call only after application threads have stopped allocating; handles
/// cached by still-live threads are flushed lazily on their next use.
///
/// # Errors
/// [`PmError::InvalidRequest`] when the front end is not initialized.
pub fn shutdown() -> PmResult<()> {
    let p = SHARED.swap(null_mut(), Ordering::AcqRel);
    if p.is_null() || p == INITIALIZING {
        if p == INITIALIZING {
            SHARED.store(INITIALIZING, Ordering::Release);
        }
        return Err(PmError::InvalidRequest("global allocator not initialized"));
    }
    trace_read(p, "global-state");
    // SAFETY: p came from Box::leak in init() and is never freed.
    let st: &'static GlobalState = unsafe { &*p };
    with_guard(|| {
        // Drop this thread's cached handle so its tcache flushes back
        // before the clean-shutdown mark.
        let _ = TCTX.try_with(|c| c.borrow_mut().take());
        st.alloc.quiesce();
        st.alloc.exit();
    });
    // Push onto the retired list (lock-free Treiber stack).
    let mut head = RETIRED_HEAD.load(Ordering::Acquire);
    loop {
        // sched: ordering-ok(publication ordered by the RETIRED_HEAD CAS Release below)
        st.next_retired.store(head, Ordering::Relaxed);
        match RETIRED_HEAD.compare_exchange(head, p, Ordering::AcqRel, Ordering::Acquire) {
            Ok(_) => break,
            Err(h) => head = h,
        }
    }
    Ok(())
}

/// Tear the front end down *completely* — active state and the whole
/// retired list are dropped, releasing their pools. Test support: the
/// production path is [`shutdown`], which deliberately leaks so stale
/// pointers stay defined. After this, nothing may touch any pointer a
/// previous incarnation handed out.
///
/// # Safety
/// The caller must guarantee no other thread is inside the front end and
/// that no pointer served by any prior incarnation (active or retired)
/// will ever be dereferenced, freed, or realloc'd again.
#[doc(hidden)]
// SAFETY: contract in the `# Safety` section above (exclusive access, no
// pointer from any prior incarnation is ever used again).
pub unsafe fn reset_unchecked() {
    let p = SHARED.swap(null_mut(), Ordering::AcqRel);
    if !p.is_null() && p != INITIALIZING {
        trace_forget(p);
        // SAFETY: non-sentinel SHARED pointers are leaked Boxes from
        // init(); the caller promises exclusive access.
        drop(unsafe { Box::from_raw(p) });
    }
    let mut r = RETIRED_HEAD.swap(null_mut(), Ordering::AcqRel);
    while !r.is_null() {
        trace_forget(r);
        // SAFETY: retired nodes are leaked Boxes; detaching the whole
        // list above made this traversal exclusive.
        let st = unsafe { Box::from_raw(r) };
        r = st.next_retired.load(Ordering::Acquire);
        drop(st);
    }
}

/// True when [`init`] has completed and the front end is serving.
pub fn is_initialized() -> bool {
    state().is_some()
}

/// Run `f` against the active allocator (metrics, audits, telemetry).
/// `None` when uninitialized.
pub fn with_allocator<R>(f: impl FnOnce(&NvAllocator) -> R) -> Option<R> {
    state().map(|st| f(&st.alloc))
}

/// Objects the attach scan carried over from the previous incarnation of
/// the heap, as `(pointer, usable_bytes)` pairs valid in this process.
/// They are ordinary live objects: read them, `realloc` them, free them
/// with [`nv_free`]. Empty when the pool was freshly created.
pub fn recovered_objects() -> Vec<(*mut u8, usize)> {
    match state() {
        None => Vec::new(),
        Some(st) => st
            .recovered
            .iter()
            .map(|&(off, usable)| ((st.base + off as usize) as *mut u8, usable))
            .collect(),
    }
}

// ---------------------------------------------------------------------------
// Allocation paths
// ---------------------------------------------------------------------------

/// How a request maps onto the allocator.
fn plan(size: usize, align: usize) -> (usize, usize) {
    // Returns (request_bytes, align_for_malloc_aligned_to). align == 0 in
    // the second slot means "plain malloc_to + padding".
    let size = size.max(1);
    if align <= 8 {
        (size, 0)
    } else if align <= PAGE {
        // Pad: blocks are 8-aligned, and any request this large that goes
        // to the extent path is page-aligned anyway.
        (size + align, 0)
    } else if size.next_multiple_of(PAGE) > HUGE_MIN {
        // Huge extents are page-aligned only; fall back to padding.
        (size + align, 0)
    } else {
        (size, align)
    }
}

/// Take the free pair at the front of the FIFO, growing the directory by
/// one page when none is left.
fn take_pair(st: &GlobalState) -> PmResult<PmOffset> {
    let mut inner = st.inner.lock();
    if inner.free_slots.is_empty() {
        // Hang the new page off the last page's link word — or off the
        // meta link when a crash left the chain empty.
        let link = inner.pages.last().map_or(st.meta + 16, |p| *p);
        with_thread(st, |t| grow(&st.pool, t, st.meta, link, &mut inner))?;
    }
    Ok(inner.free_slots.pop_front().expect("grow added pairs"))
}

/// Commit a block at a free pair's word A. Returns the user offset and the
/// object, not yet indexed. With `at_base` (only for align ≤ 8, where the
/// user offset is the block base) B = [`AT_BASE`] is stored first with a
/// plain store: it shares A's line, so the allocator's destination flush
/// commits and publishes together. Otherwise B = 0 is persisted first and
/// the object stays unpublished until [`publish`] — realloc's copy and
/// calloc's zero fill happen in that window.
fn commit(st: &GlobalState, size: usize, align: usize, at_base: bool) -> PmResult<(u64, Obj)> {
    debug_assert!(!at_base || align <= 8, "a padded user offset is not the block base");
    let (request, aligned) = plan(size, align);
    // Alignment is a *host-address* property: the pool base is only
    // word-aligned, so an aligned pool offset lands at base % align into
    // an alignment stride. The aligned-extent route compensates by
    // requesting exactly the base's misalignment as extra bytes; the
    // padded route already over-requests a full `align`.
    let request =
        if aligned == 0 { request } else { request + (aligned - st.base % aligned) % aligned };
    let slot = take_pair(st)?;
    let r = with_thread(st, |t| {
        if at_base {
            st.pool.write_u64(slot + 8, AT_BASE);
            st.pool.charge_store(t.pm_mut(), slot + 8, 8);
        } else {
            // Clear the stale publication before the new commit can land.
            st.pool.persist_u64(t.pm_mut(), slot + 8, 0, FlushKind::Meta);
        }
        if aligned == 0 {
            t.malloc_to(request, slot)
        } else {
            t.malloc_aligned_to(request, aligned, slot)
        }
    });
    let block = match r {
        Ok(b) => b,
        Err(e) => {
            // A is still 0, so the pair is free whatever B now holds.
            st.inner.lock().free_slots.push_front(slot);
            return Err(e);
        }
    };
    let granted = st
        .alloc
        .usable_size(block)
        .unwrap_or_else(|| die("allocator granted an untracked block", &block));
    let user = if align <= 8 {
        block // word-aligned base keeps ≤ 8-byte alignments for free
    } else {
        (st.base as u64 + block).next_multiple_of(align as u64) - st.base as u64
    };
    debug_assert!(user + size.max(1) as u64 <= block + granted as u64);
    let usable = (block as usize + granted) - user as usize;
    Ok((user, Obj { slot, block, usable }))
}

/// Persist word B and index the object. Completes an unpublished
/// [`commit`].
fn publish(st: &GlobalState, user: u64, obj: Obj) {
    with_thread(st, |t| {
        st.pool.persist_u64(t.pm_mut(), obj.slot + 8, user, FlushKind::Meta);
    });
    st.inner.lock().objects.insert(user, obj);
}

/// Full allocation: commit + publish. Returns the user offset.
fn try_alloc(st: &GlobalState, size: usize, align: usize) -> PmResult<u64> {
    let at_base = align <= 8;
    let (user, obj) = commit(st, size, align, at_base)?;
    if at_base {
        st.inner.lock().objects.insert(user, obj);
    } else {
        publish(st, user, obj);
    }
    Ok(user)
}

/// Free the object at user offset `user`. Aborts on an offset the
/// directory does not track (wild or double free — the heap cannot tell
/// which, and either means corruption). Word B is left stale: A == 0
/// already marks the pair free, and both allocation paths overwrite B
/// before their commit can land.
fn do_free(st: &GlobalState, user: u64) {
    let obj = match st.inner.lock().objects.remove(&user) {
        Some(o) => o,
        None => die("free of untracked pointer (wild or double free)", &format_args!("{user:#x}")),
    };
    if let Err(e) = with_thread(st, |t| t.free_from(obj.slot)) {
        // NotAllocated / ShardViolation here means directory and allocator
        // disagree — typed corruption, surfaced as abort-with-report.
        die("free_from failed", &format_args!("block {:#x}: {e}", obj.block));
    }
    st.inner.lock().free_slots.push_back(obj.slot);
}

/// Copy `len` payload bytes from `src` to `dst` *persistently* (through
/// the pool API, flushed and fenced) so the realloc protocol's committed
/// image always contains the copy once the new block is published.
fn persistent_copy(st: &GlobalState, src: u64, dst: u64, len: usize) {
    if len == 0 {
        return;
    }
    let mut buf = vec![0u8; len];
    st.pool.read_bytes(src, &mut buf);
    st.pool.write_bytes(dst, &buf);
    with_thread(st, |t| {
        st.pool.charge_store(t.pm_mut(), dst, len);
        st.pool.flush(t.pm_mut(), dst, len, FlushKind::Data);
        st.pool.fence(t.pm_mut());
    });
}

/// Shared realloc core: `user` must be a tracked offset. Returns the new
/// user offset (possibly unchanged, for in-place growth/shrink).
fn do_realloc(st: &GlobalState, user: u64, new_size: usize, align: usize) -> PmResult<u64> {
    let obj = match st.inner.lock().objects.get(&user) {
        Some(o) => *o,
        None => die("realloc of untracked pointer", &format_args!("{user:#x}")),
    };
    if new_size.max(1) <= obj.usable {
        return Ok(user); // in place: shrink or slack growth
    }
    // old live → new committed (unpublished) → copy → new live → old freed
    let (new_user, new_obj) = commit(st, new_size, align, false)?;
    persistent_copy(st, user, new_user, obj.usable.min(new_size));
    publish(st, new_user, new_obj);
    do_free(st, user);
    Ok(new_user)
}

fn in_pool(st: &GlobalState, addr: usize) -> bool {
    addr >= st.base && addr < st.base + st.size
}

/// True when `addr` points into a retired (shut-down) pool image.
fn in_retired(addr: usize) -> bool {
    let mut p = RETIRED_HEAD.load(Ordering::Acquire);
    while !p.is_null() {
        trace_read(p, "global-state");
        // SAFETY: retired states are leaked Box allocations; the list is
        // append-only, so every reachable node stays valid forever.
        let st = unsafe { &*p };
        if in_pool(st, addr) {
            return true;
        }
        p = st.next_retired.load(Ordering::Acquire);
    }
    false
}

// ---------------------------------------------------------------------------
// GlobalAlloc
// ---------------------------------------------------------------------------

/// Zero-sized handle implementing [`GlobalAlloc`] over the process-wide
/// NVAlloc heap. Until [`init`] runs (and for the front end's own internal
/// bookkeeping) it transparently defers to [`System`]; `dealloc` routes by
/// pointer provenance, so mixing the phases is safe.
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: nvalloc::global::GlobalNv = nvalloc::global::GlobalNv;
/// ```
pub struct GlobalNv;

// SAFETY: alloc returns blocks satisfying the layout (plan() pads or
// requests aligned extents); dealloc/realloc accept only pointers with
// matching provenance (System back to System, retired pools no-op).
unsafe impl GlobalAlloc for GlobalNv {
    // SAFETY: callers uphold the GlobalAlloc contract (non-zero size).
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let served = with_guard(|| {
            let st = state()?;
            // Fixed-depth profiler site: skip the backtrace capture on
            // the sampled path and attribute to the shim entry point.
            match crate::prof::with_site("GlobalNv::alloc", || {
                try_alloc(st, layout.size(), layout.align())
            }) {
                Ok(user) => Some((st.base + user as usize) as *mut u8),
                Err(PmError::OutOfMemory { .. }) => Some(null_mut()),
                Err(e) => die("alloc failed", &e),
            }
        });
        match served {
            Some(Some(p)) => p,
            // Uninitialized, re-entrant, or TLS teardown: System heap.
            // SAFETY: caller's layout obligations forwarded verbatim.
            _ => unsafe { System.alloc(layout) },
        }
    }

    // SAFETY: ptr/layout come from a matching alloc per the trait contract.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let addr = ptr as usize;
        if let Some(st) = state() {
            if in_pool(st, addr) {
                // Must never reach System; run even when the guard is
                // taken (internal code does not free pool pointers, so a
                // guarded entry here is impossible in practice).
                let done = with_guard(|| do_free(st, (addr - st.base) as u64));
                if done.is_none() {
                    do_free(st, (addr - st.base) as u64);
                }
                return;
            }
        }
        if in_retired(addr) {
            return; // stale pointer into a shut-down heap: defined no-op
        }
        // SAFETY: not ours, so it was served by System.alloc.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: contract as GlobalAlloc::realloc; new_size > 0.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let addr = ptr as usize;
        if let Some(st) = state() {
            if in_pool(st, addr) {
                let r = with_guard(|| {
                    match crate::prof::with_site("GlobalNv::realloc", || {
                        do_realloc(st, (addr - st.base) as u64, new_size, layout.align())
                    }) {
                        Ok(user) => (st.base + user as usize) as *mut u8,
                        Err(_) => null_mut(),
                    }
                });
                return r.unwrap_or(null_mut());
            }
        }
        if in_retired(addr) || state().is_none() {
            // Retired or pre-init pointer: migrate to whichever heap
            // alloc() currently serves, then release the original.
            // SAFETY: same contract forwarding as alloc/dealloc above.
            unsafe {
                let n = self.alloc(Layout::from_size_align_unchecked(new_size, layout.align()));
                if !n.is_null() {
                    std::ptr::copy_nonoverlapping(ptr, n, layout.size().min(new_size));
                    self.dealloc(ptr, layout);
                }
                return n;
            }
        }
        // SAFETY: a System pointer with the caller's layout contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

// ---------------------------------------------------------------------------
// C-ABI shim
// ---------------------------------------------------------------------------

/// C `malloc`: allocate `size` bytes, 8-byte aligned. `malloc(0)` returns
/// a unique pointer (a minimum-class block). Returns null when the heap is
/// exhausted **or the front end is not initialized** — the shim never
/// falls back to the system heap, because `nv_free` could not route the
/// result. Aborts with a report on heap corruption.
pub extern "C" fn nv_malloc(size: usize) -> *mut core::ffi::c_void {
    let r = with_guard(|| {
        let st = state()?;
        match crate::prof::with_site("nv_malloc", || try_alloc(st, size, 8)) {
            Ok(user) => Some((st.base + user as usize) as *mut core::ffi::c_void),
            Err(PmError::OutOfMemory { .. }) => None,
            Err(e) => die("nv_malloc failed", &e),
        }
    });
    match r {
        Some(Some(p)) => p,
        _ => null_mut::<core::ffi::c_void>(),
    }
}

/// C `calloc`: allocate `n * size` zeroed bytes. Unlike payload stores
/// through the returned pointer, the zero fill goes through the pool API,
/// flushed and fenced while the object is still unpublished (word B = 0),
/// so a recovered object is guaranteed to read zero wherever the
/// application never wrote. Returns null on overflow, exhaustion, or
/// before [`init`].
pub extern "C" fn nv_calloc(n: usize, size: usize) -> *mut core::ffi::c_void {
    let Some(total) = n.checked_mul(size) else {
        return null_mut();
    };
    let r = with_guard(|| {
        let st = state()?;
        match crate::prof::with_site("nv_calloc", || commit(st, total, 8, false)) {
            Ok((user, obj)) => {
                st.pool.fill_bytes(user, total.max(1), 0);
                with_thread(st, |t| {
                    st.pool.charge_store(t.pm_mut(), user, total.max(1));
                    st.pool.flush(t.pm_mut(), user, total.max(1), FlushKind::Data);
                    st.pool.fence(t.pm_mut());
                });
                publish(st, user, obj);
                Some((st.base + user as usize) as *mut core::ffi::c_void)
            }
            Err(PmError::OutOfMemory { .. }) => None,
            Err(e) => die("nv_calloc failed", &e),
        }
    });
    match r {
        Some(Some(p)) => p,
        _ => null_mut::<core::ffi::c_void>(),
    }
}

/// C `free`. Null is a no-op; pointers into a retired heap (one that is
/// not also the current one — re-attaching the same pool makes its
/// recovered objects live again) are a defined no-op; a pointer the
/// directory does not track aborts with a report (wild or double free).
pub extern "C" fn nv_free(ptr: *mut core::ffi::c_void) {
    let addr = ptr as usize;
    if ptr.is_null() {
        return;
    }
    // The current heap takes precedence over the retired list: after a
    // shutdown + re-init on the *same* pool their ranges coincide, and
    // recovered objects must free into the live directory, not no-op.
    if let Some(st) = state() {
        if in_pool(st, addr) {
            let done = with_guard(|| do_free(st, (addr - st.base) as u64));
            if done.is_none() {
                do_free(st, (addr - st.base) as u64);
            }
            return;
        }
    }
    if in_retired(addr) {
        return;
    }
    if state().is_none() {
        die("nv_free before init", &format_args!("{addr:#x}"));
    }
    die("nv_free of pointer outside the heap", &format_args!("{addr:#x}"));
}

/// C `realloc`: `nv_realloc(null, n)` ≡ `nv_malloc(n)`;
/// `nv_realloc(p, 0)` frees `p` and returns null; growth within the
/// block's usable slack is in place; otherwise the crash protocol is
/// *old live → copy (persistent) → new live → old freed*, so a crash at
/// any prefix leaves old, both, or new — never neither.
pub extern "C" fn nv_realloc(
    ptr: *mut core::ffi::c_void,
    new_size: usize,
) -> *mut core::ffi::c_void {
    if ptr.is_null() {
        return nv_malloc(new_size);
    }
    if new_size == 0 {
        nv_free(ptr);
        return null_mut();
    }
    let addr = ptr as usize;
    // Current heap first — see nv_free for the same-pool re-init hazard.
    if let Some(st) = state() {
        if in_pool(st, addr) {
            let r = with_guard(|| {
                match crate::prof::with_site("nv_realloc", || {
                    do_realloc(st, (addr - st.base) as u64, new_size, 8)
                }) {
                    Ok(user) => (st.base + user as usize) as *mut core::ffi::c_void,
                    Err(_) => null_mut(),
                }
            });
            return r.unwrap_or(null_mut());
        }
    }
    if in_retired(addr) {
        return null_mut(); // retired heaps cannot serve; old ptr stays valid
    }
    if state().is_none() {
        die("nv_realloc before init", &format_args!("{addr:#x}"));
    }
    die("nv_realloc of pointer outside the heap", &format_args!("{addr:#x}"));
}

/// `malloc_usable_size`: granted capacity at `ptr` (≥ the requested
/// size), or 0 for null / untracked / retired pointers.
pub extern "C" fn nv_usable_size(ptr: *mut core::ffi::c_void) -> usize {
    let addr = ptr as usize;
    let Some(st) = state() else { return 0 };
    if ptr.is_null() || !in_pool(st, addr) {
        return 0;
    }
    st.inner.lock().objects.get(&((addr - st.base) as u64)).map_or(0, |o| o.usable)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_padding_and_aligned_routes() {
        assert_eq!(plan(100, 1), (100, 0));
        assert_eq!(plan(100, 8), (100, 0));
        assert_eq!(plan(0, 8), (1, 0));
        // Sub-page oversize alignment pads.
        assert_eq!(plan(100, 64), (164, 0));
        assert_eq!(plan(100, PAGE), (100 + PAGE, 0));
        // Super-page alignment gets an aligned extent...
        assert_eq!(plan(100, 2 * PAGE), (100, 2 * PAGE));
        // ...unless the extent would be huge, which pads instead.
        assert_eq!(plan(HUGE_MIN + 1, 2 * PAGE), (HUGE_MIN + 1 + 2 * PAGE, 0));
    }

    #[test]
    fn pairs_fill_the_page_and_alternate_lines() {
        let page = 1 << 20;
        let order: Vec<PmOffset> = pairs(page).collect();
        let mut sorted = order.clone();
        sorted.sort_unstable();
        let expect: Vec<PmOffset> = (16..PAGE_BYTES as u64).step_by(16).map(|b| page + b).collect();
        assert_eq!(expect.len(), 255);
        assert_eq!(sorted, expect, "every pair exactly once");
        for w in order.windows(2) {
            assert_ne!(w[0] / 64, w[1] / 64, "{:#x} and {:#x} share a line", w[0], w[1]);
        }
        // Word B never leaves word A's line.
        assert!(order.iter().all(|a| a / 64 == (a + 8) / 64));
    }
}
