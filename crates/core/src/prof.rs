//! Sampled heap profiler with crash-surviving allocation-site provenance.
//!
//! `prof` answers the production question "*which call sites own the bytes
//! in this pool*" — live, at shutdown, and after a crash. It has two
//! halves:
//!
//! 1. **Volatile site table.** Allocations are byte-sampled: a per-thread
//!    countdown accumulates granted bytes and every time it crosses the
//!    configured sampling period (`NvConfig::profiling(sample_bytes)`) the
//!    allocation is *sampled*. A sampled allocation captures a call-site
//!    tag — either the explicit tag installed by [`with_site`] (the
//!    fixed-depth fast path used by the `GlobalNv`/`nv_malloc` shim) or a
//!    hash of the `std::backtrace` frames — and updates a per-site table
//!    of estimated live bytes/objects, cumulative sampled allocs/frees,
//!    and the size-class mix.
//! 2. **Persistent provenance sidelog.** Each arena owns a small
//!    log-structured sidelog (two halves of [`PROF_HALF_RECORDS`] 32-byte
//!    records behind a 64-byte header), modeled on the booklog: records
//!    are appended with the same store → flush → fence discipline, a
//!    full half is compacted by rewriting the surviving live records into
//!    the other half and flipping the header's active-half word with a
//!    single `persist_u64` (crash-atomic), and recovery replays the
//!    active half sequentially. Because an ALLOC record is fenced
//!    *before* the allocation's commit point and a FREE record is fenced
//!    *after* the free's commit but *before* the block can be reused,
//!    every object that survives a crash has a persisted ALLOC record,
//!    and no FREE record ever refers to a survivor — recovery and
//!    `nvalloc_doctor --profile` can therefore re-attribute every
//!    surviving sampled object to the site that created it.
//!
//! Sampling math: with period `P`, an allocation of `s` bytes is sampled
//! with expected weight `s` (the countdown crosses `P` on average `s/P`
//! times and each crossing contributes `P` estimated bytes), so
//! `Σ crossings·P` over sampled live objects is an unbiased estimator of
//! live bytes. The countdown is deterministic — no RNG — so same-seed
//! runs on virtual-clock pools produce byte-identical dumps.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

use nvalloc_pmem::{FlushKind, PmOffset, PmThread, PmemPool};

use crate::size_class::{size_to_class, LARGE_MIN};
use crate::telemetry::json::JsonObj;
use crate::telemetry::SCHEMA_VERSION;

/// Bytes reserved per arena for the provenance sidelog (header + 2 halves).
pub const PROF_LOG_BYTES: usize = 64 << 10;
/// Bytes of the per-arena sidelog header (active-half word + dropped count).
pub const PROF_LOG_HEADER_BYTES: usize = 64;
/// Bytes per sidelog record. 32 divides the 64-byte line, so a record
/// never straddles a cache line and can never tear in a crash image.
pub const PROF_RECORD_BYTES: usize = 32;
/// Records per sidelog half: `(64 KiB - 64 B) / (2 · 32 B)`.
pub const PROF_HALF_RECORDS: usize =
    (PROF_LOG_BYTES - PROF_LOG_HEADER_BYTES) / (2 * PROF_RECORD_BYTES);

/// Record kind tag for a sampled allocation.
pub const PROF_KIND_ALLOC: u64 = 1;
/// Record kind tag for the free of a previously sampled allocation.
pub const PROF_KIND_FREE: u64 = 2;

/// Bits of record word 3 holding the granted size; the rest hold crossings.
const SIZE_BITS: u32 = 40;
const SIZE_MASK: u64 = (1 << SIZE_BITS) - 1;
const ADDR_MASK: u64 = (1 << 56) - 1;
const MAX_CROSSINGS: u64 = (1 << (64 - SIZE_BITS)) - 1;

/// Pseudo size-class id used in the site mix for large (extent) allocations.
pub const PROF_CLASS_LARGE: usize = 255;

/// Frames hashed per backtrace site (fixed depth keeps tags stable).
const MAX_FRAMES: usize = 16;

/// On-PM layout of a sidelog header (documentation + layout-test anchor).
///
/// Word 0 is the active-half selector (0 or 1; flipping it is the
/// compaction commit point), word 1 counts records dropped because both
/// halves were full of live records.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct ProfLogHeaderRaw {
    /// Active half selector: 0 or 1.
    pub active_half: u64,
    /// Records dropped due to overflow (coverage loss, not corruption).
    pub dropped: u64,
    /// Pad the header to one cache line.
    pub _pad: [u64; 6],
}

/// On-PM layout of one sidelog record (documentation + layout-test anchor).
///
/// `kind_addr` packs `kind << 56 | addr` and is written *last* in program
/// order: a record is valid iff this word is non-zero, and because the
/// record sits inside one cache line it appears in a crash image all or
/// nothing.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct ProfRecordRaw {
    /// `kind << 56 | pool offset` — the commit word.
    pub kind_addr: u64,
    /// FNV-1a hash of the creating call site.
    pub site: u64,
    /// Global sequence number; totally orders replay across arena logs.
    pub seq: u64,
    /// `crossings << 40 | granted size in bytes`.
    pub weight_size: u64,
}

// ---------------------------------------------------------------------------
// Call-site capture
// ---------------------------------------------------------------------------

thread_local! {
    static SITE_TAG: Cell<Option<(u64, &'static str)>> = const { Cell::new(None) };
}

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(FNV_PRIME);
    }
}

/// Hash a static label into a site tag.
pub fn site_tag(label: &str) -> u64 {
    let mut h = FNV_OFFSET;
    fnv1a(&mut h, label.as_bytes());
    h
}

struct SiteGuard(Option<(u64, &'static str)>);

impl Drop for SiteGuard {
    fn drop(&mut self) {
        SITE_TAG.with(|s| s.set(self.0));
    }
}

/// Run `f` with an explicit call-site tag installed for the current
/// thread. Sampled allocations inside `f` attribute to `label` without
/// capturing a backtrace — the fixed-depth fast path used by the
/// `GlobalNv` front end and the C-ABI shim.
pub fn with_site<R>(label: &'static str, f: impl FnOnce() -> R) -> R {
    let guard = SiteGuard(SITE_TAG.with(|s| s.replace(Some((site_tag(label), label)))));
    let r = f();
    drop(guard);
    r
}

/// Strip `0x…` hex tokens so ASLR'd frame addresses never reach the hash.
fn strip_hex(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(i) = rest.find("0x") {
        out.push_str(&rest[..i]);
        rest = &rest[i + 2..];
        let end = rest.find(|c: char| !c.is_ascii_hexdigit()).unwrap_or(rest.len());
        rest = &rest[end..];
    }
    out.push_str(rest);
    out
}

/// Capture the current call site: the TLS override if installed, else a
/// fixed-depth hash of the symbolized backtrace frames.
fn capture_site() -> (u64, String) {
    if let Some((tag, label)) = SITE_TAG.with(Cell::get) {
        return (tag, label.to_string());
    }
    let bt = std::backtrace::Backtrace::force_capture();
    let text = bt.to_string();
    let mut frames: Vec<String> = Vec::new();
    for line in text.lines() {
        let t = line.trim_start();
        let Some((idx, sym)) = t.split_once(": ") else {
            continue;
        };
        if idx.is_empty() || !idx.bytes().all(|b| b.is_ascii_digit()) {
            continue;
        }
        let sym = strip_hex(sym.trim());
        if sym.is_empty() || sym.contains("nvalloc::prof") || sym.starts_with("std::backtrace") {
            continue;
        }
        frames.push(sym);
        if frames.len() >= MAX_FRAMES {
            break;
        }
    }
    if frames.is_empty() {
        return (site_tag("unknown"), "unknown".to_string());
    }
    let mut h = FNV_OFFSET;
    for f in &frames {
        fnv1a(&mut h, f.as_bytes());
        fnv1a(&mut h, b";");
    }
    frames.reverse(); // collapsed-stack convention: outermost first
    (h, frames.join(";"))
}

// ---------------------------------------------------------------------------
// Volatile state
// ---------------------------------------------------------------------------

/// Per-site statistics. `live_*`/`*_est` fields are sampled estimates
/// (crossings × period); cumulative counters count *sampled events* since
/// attach and are volatile — they reset across crash recovery.
#[derive(Debug, Clone, Default)]
pub struct SiteStats {
    /// Human-readable site label (collapsed frame stack or explicit tag).
    pub label: String,
    /// Estimated live bytes attributed to this site.
    pub live_bytes: u64,
    /// Estimated live objects (sample crossings) for this site.
    pub live_objects: u64,
    /// Cumulative estimated bytes allocated here since attach.
    pub alloc_bytes: u64,
    /// Sampled allocation events since attach.
    pub allocs: u64,
    /// Sampled free events since attach.
    pub frees: u64,
    /// Size-class mix: class id (255 = large) → sampled events.
    pub class_mix: BTreeMap<usize, u64>,
}

#[derive(Debug, Clone, Copy)]
struct LiveObj {
    site: u64,
    seq: u64,
    size: u64,
    crossings: u64,
    arena: u32,
}

#[derive(Debug, Clone, Copy, Default)]
struct LogState {
    active: usize,
    fill: usize,
    dropped: u64,
}

/// One row of the retained-set report captured at `quiesce()`.
#[derive(Debug, Clone)]
pub struct RetainedSite {
    /// Site hash.
    pub site: u64,
    /// Site label.
    pub label: String,
    /// Estimated bytes still live at quiesce.
    pub live_bytes: u64,
    /// Estimated objects still live at quiesce.
    pub live_objects: u64,
}

#[derive(Debug, Default)]
struct ProfInner {
    sites: BTreeMap<u64, SiteStats>,
    live: BTreeMap<PmOffset, LiveObj>,
    logs: Vec<LogState>,
    retained: Vec<RetainedSite>,
}

/// A raw sidelog record as scanned off persistent memory.
#[derive(Debug, Clone, Copy)]
pub struct RawProfRecord {
    /// [`PROF_KIND_ALLOC`] or [`PROF_KIND_FREE`].
    pub kind: u64,
    /// Pool offset of the object.
    pub addr: PmOffset,
    /// Site hash.
    pub site: u64,
    /// Global sequence number.
    pub seq: u64,
    /// Sample crossings (weight = crossings × period).
    pub crossings: u64,
    /// Granted size in bytes.
    pub size: u64,
    /// Arena whose sidelog held the record.
    pub arena: u32,
}

/// A sampled object reconstructed by sidelog replay.
#[derive(Debug, Clone, Copy)]
pub struct ReplayedObj {
    /// Site hash that created the object.
    pub site: u64,
    /// Sequence number of the creating ALLOC record.
    pub seq: u64,
    /// Granted size in bytes.
    pub size: u64,
    /// Sample crossings.
    pub crossings: u64,
    /// Owning arena.
    pub arena: u32,
}

/// Outcome of a recovery-time sidelog rebuild.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProfReplayStats {
    /// Raw records scanned across all arena sidelogs.
    pub records: usize,
    /// Replayed-live records pruned because the object is dead on-heap
    /// (crash landed between an append and its matching commit).
    pub stale: usize,
}

// ---------------------------------------------------------------------------
// Prof
// ---------------------------------------------------------------------------

/// The sampled heap profiler attached to an [`crate::NvAllocator`].
///
/// Locking: the inner `RwLock` is a **leaf lock** — `Prof` never acquires
/// arena or shard locks, so callers may invoke it while holding either.
#[derive(Debug)]
pub struct Prof {
    period: u64,
    base: PmOffset,
    arenas: usize,
    seq: AtomicU64,
    samples: AtomicU64,
    appends: AtomicU64,
    free_hits: AtomicU64,
    compactions: AtomicU64,
    dropped: AtomicU64,
    inner: RwLock<ProfInner>,
}

impl Prof {
    /// Fresh profiler over a zeroed sidelog region (pool create path).
    pub(crate) fn new(period: u64, base: PmOffset, arenas: usize) -> Prof {
        Prof {
            period: period.max(1),
            base,
            arenas,
            seq: AtomicU64::new(1),
            samples: AtomicU64::new(0),
            appends: AtomicU64::new(0),
            free_hits: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            inner: RwLock::new(ProfInner {
                logs: vec![LogState::default(); arenas],
                ..ProfInner::default()
            }),
        }
    }

    /// The configured sampling period in bytes.
    pub fn sample_period(&self) -> u64 {
        self.period
    }

    fn log_base(&self, arena: usize) -> PmOffset {
        self.base + (arena * PROF_LOG_BYTES) as u64
    }

    fn half_base(&self, arena: usize, half: usize) -> PmOffset {
        self.log_base(arena)
            + PROF_LOG_HEADER_BYTES as u64
            + (half * PROF_HALF_RECORDS * PROF_RECORD_BYTES) as u64
    }

    /// Advance the per-thread byte countdown by `size` granted bytes and
    /// return how many times it crossed the sampling period (0 = not
    /// sampled). Deterministic: no RNG, so same-seed runs sample the same
    /// allocations.
    #[inline]
    pub(crate) fn crossings(&self, acc: &mut u64, size: usize) -> u64 {
        *acc += size as u64;
        if *acc < self.period {
            return 0;
        }
        let c = *acc / self.period;
        *acc %= self.period;
        c.min(MAX_CROSSINGS)
    }

    /// Record a sampled allocation. Must be called *before* the
    /// allocation's persistent commit point (dest install): if the commit
    /// never lands, the record is stale and recovery prunes it; if it
    /// lands, the survivor is guaranteed an attributing record.
    pub(crate) fn record_alloc(
        &self,
        pool: &PmemPool,
        t: &mut PmThread,
        arena: u32,
        addr: PmOffset,
        size: usize,
        crossings: u64,
    ) {
        let (site, label) = capture_site();
        let weight = crossings.saturating_mul(self.period);
        self.samples.fetch_add(1, Ordering::Relaxed);
        let mut inner = self.inner.write().unwrap();
        let e = inner.sites.entry(site).or_default();
        if e.label.is_empty() {
            e.label = label;
        }
        e.live_bytes += weight;
        e.live_objects += crossings;
        e.alloc_bytes += weight;
        e.allocs += 1;
        let class = if size < LARGE_MIN {
            size_to_class(size).unwrap_or(PROF_CLASS_LARGE)
        } else {
            PROF_CLASS_LARGE
        };
        *e.class_mix.entry(class).or_insert(0) += 1;
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let prev = inner
            .live
            .insert(addr, LiveObj { site, seq, size: size as u64 & SIZE_MASK, crossings, arena });
        debug_assert!(prev.is_none(), "sampled address allocated twice: {addr:#x}");
        self.append_locked(
            &mut inner,
            pool,
            t,
            arena as usize,
            PROF_KIND_ALLOC,
            addr,
            site,
            seq,
            crossings,
            size as u64,
        );
    }

    /// Record the free of an address if (and only if) it was sampled.
    /// Must be called *after* the free's persistent commit (bitmap
    /// clear, slot reset) and *before* the block becomes reusable, so a
    /// later ALLOC record for the same address always replays after
    /// this FREE.
    pub(crate) fn record_free(&self, pool: &PmemPool, t: &mut PmThread, addr: PmOffset) {
        {
            let inner = self.inner.read().unwrap();
            if !inner.live.contains_key(&addr) {
                return;
            }
        }
        let mut inner = self.inner.write().unwrap();
        let Some(obj) = inner.live.remove(&addr) else {
            return;
        };
        self.free_hits.fetch_add(1, Ordering::Relaxed);
        let weight = obj.crossings.saturating_mul(self.period);
        if let Some(s) = inner.sites.get_mut(&obj.site) {
            s.live_bytes = s.live_bytes.saturating_sub(weight);
            s.live_objects = s.live_objects.saturating_sub(obj.crossings);
            s.frees += 1;
        }
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        self.append_locked(
            &mut inner,
            pool,
            t,
            obj.arena as usize,
            PROF_KIND_FREE,
            addr,
            obj.site,
            seq,
            obj.crossings,
            obj.size,
        );
    }

    /// Append one record to `arena`'s sidelog, compacting first if the
    /// active half is full. Follows the booklog discipline: data words
    /// first, commit word last (same cache line), then charge + flush +
    /// fence before the caller proceeds to its own commit point.
    #[allow(clippy::too_many_arguments)]
    fn append_locked(
        &self,
        inner: &mut ProfInner,
        pool: &PmemPool,
        t: &mut PmThread,
        arena: usize,
        kind: u64,
        addr: PmOffset,
        site: u64,
        seq: u64,
        crossings: u64,
        size: u64,
    ) {
        if inner.logs[arena].fill == PROF_HALF_RECORDS {
            self.compact_locked(inner, pool, t, arena);
        }
        let st = &mut inner.logs[arena];
        if st.fill == PROF_HALF_RECORDS {
            // Both halves full of live records: drop (coverage loss only).
            st.dropped += 1;
            let dropped = st.dropped;
            self.dropped.fetch_add(1, Ordering::Relaxed);
            pool.persist_u64(t, self.log_base(arena) + 8, dropped, FlushKind::BookLog);
            return;
        }
        let off = self.half_base(arena, st.active) + (st.fill * PROF_RECORD_BYTES) as u64;
        pool.write_u64(off + 8, site);
        pool.write_u64(off + 16, seq);
        pool.write_u64(off + 24, (crossings << SIZE_BITS) | (size & SIZE_MASK));
        pool.write_u64(off, (kind << 56) | (addr & ADDR_MASK));
        pool.charge_store(t, off, PROF_RECORD_BYTES);
        pool.flush(t, off, PROF_RECORD_BYTES, FlushKind::BookLog);
        pool.fence(t);
        st.fill += 1;
        self.appends.fetch_add(1, Ordering::Relaxed);
    }

    /// Rewrite `arena`'s surviving live records into the inactive half and
    /// flip the header's active-half word. The flip is a single
    /// `persist_u64`, so a crash at any prefix leaves one self-consistent
    /// half: before the flip the old half replays to the same live set.
    fn compact_locked(
        &self,
        inner: &mut ProfInner,
        pool: &PmemPool,
        t: &mut PmThread,
        arena: usize,
    ) {
        let to = 1 - inner.logs[arena].active;
        let dst = self.half_base(arena, to);
        let half_bytes = PROF_HALF_RECORDS * PROF_RECORD_BYTES;
        let mut survivors: Vec<(PmOffset, LiveObj)> = inner
            .live
            .iter()
            .filter(|(_, o)| o.arena as usize == arena)
            .map(|(a, o)| (*a, *o))
            .collect();
        survivors.sort_by_key(|(_, o)| o.seq);
        // The arena can track more live sampled objects than one half
        // holds once earlier appends overflowed (each overflow was counted
        // in `dropped` as it happened). Cap the rewrite at capacity so it
        // can never run past the half; the excess stays coverage loss and
        // is already accounted for, so `dropped` is not bumped again here.
        survivors.truncate(PROF_HALF_RECORDS);
        pool.fill_bytes(dst, half_bytes, 0);
        for (i, (addr, o)) in survivors.iter().enumerate() {
            let off = dst + (i * PROF_RECORD_BYTES) as u64;
            pool.write_u64(off + 8, o.site);
            pool.write_u64(off + 16, o.seq);
            pool.write_u64(off + 24, (o.crossings << SIZE_BITS) | (o.size & SIZE_MASK));
            pool.write_u64(off, (PROF_KIND_ALLOC << 56) | (addr & ADDR_MASK));
        }
        pool.charge_store(t, dst, half_bytes);
        pool.flush(t, dst, half_bytes, FlushKind::BookLog);
        pool.fence(t);
        pool.persist_u64(t, self.log_base(arena), to as u64, FlushKind::BookLog);
        let st = &mut inner.logs[arena];
        st.active = to;
        st.fill = survivors.len();
        self.compactions.fetch_add(1, Ordering::Relaxed);
    }

    // -----------------------------------------------------------------------
    // Recovery / offline replay
    // -----------------------------------------------------------------------

    /// Scan every arena sidelog's active half off persistent memory.
    /// Returns the raw records sorted by global sequence number, plus each
    /// log's `(active, fill, dropped)` state. Pure read — usable both by
    /// recovery and by the offline doctor.
    pub fn scan_raw(
        pool: &PmemPool,
        base: PmOffset,
        arenas: usize,
    ) -> (Vec<RawProfRecord>, Vec<(usize, usize, u64)>) {
        let mut recs = Vec::new();
        let mut states = Vec::new();
        for a in 0..arenas {
            let lb = base + (a * PROF_LOG_BYTES) as u64;
            let active = (pool.read_u64(lb) & 1) as usize;
            let dropped = pool.read_u64(lb + 8);
            let hb = lb
                + PROF_LOG_HEADER_BYTES as u64
                + (active * PROF_HALF_RECORDS * PROF_RECORD_BYTES) as u64;
            let mut fill = 0;
            for i in 0..PROF_HALF_RECORDS {
                let off = hb + (i * PROF_RECORD_BYTES) as u64;
                let w0 = pool.read_u64(off);
                if w0 == 0 {
                    break;
                }
                fill = i + 1;
                let w3 = pool.read_u64(off + 24);
                recs.push(RawProfRecord {
                    kind: w0 >> 56,
                    addr: w0 & ADDR_MASK,
                    site: pool.read_u64(off + 8),
                    seq: pool.read_u64(off + 16),
                    crossings: w3 >> SIZE_BITS,
                    size: w3 & SIZE_MASK,
                    arena: a as u32,
                });
            }
            states.push((active, fill, dropped));
        }
        recs.sort_by_key(|r| r.seq);
        (recs, states)
    }

    /// Replay seq-ordered raw records into the set of sampled objects the
    /// sidelogs believe are live.
    pub fn replay(recs: &[RawProfRecord]) -> BTreeMap<PmOffset, ReplayedObj> {
        let mut live = BTreeMap::new();
        for r in recs {
            match r.kind {
                PROF_KIND_ALLOC => {
                    live.insert(
                        r.addr,
                        ReplayedObj {
                            site: r.site,
                            seq: r.seq,
                            size: r.size,
                            crossings: r.crossings,
                            arena: r.arena,
                        },
                    );
                }
                PROF_KIND_FREE => {
                    live.remove(&r.addr);
                }
                _ => {}
            }
        }
        live
    }

    /// Recovery-time rebuild: replay the sidelogs, prune records whose
    /// object is dead on-heap (`live_size` returns the granted size of a
    /// live allocation base, or `None`), adopt the surviving set as the
    /// volatile live/site tables, and compact every arena log so the
    /// persistent sidelog again holds exactly the surviving records.
    /// Site labels are volatile and come back as `site_<hash>`; cumulative
    /// counters restart from zero.
    pub(crate) fn rebuild(
        &self,
        pool: &PmemPool,
        t: &mut PmThread,
        live_size: impl Fn(PmOffset) -> Option<usize>,
    ) -> ProfReplayStats {
        let (recs, states) = Prof::scan_raw(pool, self.base, self.arenas);
        let mut stats = ProfReplayStats { records: recs.len(), stale: 0 };
        let replayed = Prof::replay(&recs);
        let mut max_seq = 0;
        for r in &recs {
            max_seq = max_seq.max(r.seq);
        }
        let mut inner = self.inner.write().unwrap();
        inner.logs = states
            .iter()
            .map(|&(active, fill, dropped)| LogState { active, fill, dropped })
            .collect();
        let dropped = states.iter().fold(0, |sum: u64, &(_, _, d)| sum.saturating_add(d));
        self.dropped.store(dropped, Ordering::Relaxed);
        inner.live.clear();
        inner.sites.clear();
        for (addr, obj) in replayed {
            if live_size(addr) != Some(obj.size as usize) {
                stats.stale += 1;
                continue;
            }
            let weight = obj.crossings.saturating_mul(self.period);
            let e = inner.sites.entry(obj.site).or_default();
            if e.label.is_empty() {
                e.label = format!("site_{:016x}", obj.site);
            }
            e.live_bytes = e.live_bytes.saturating_add(weight);
            e.live_objects = e.live_objects.saturating_add(obj.crossings);
            let class = if (obj.size as usize) < LARGE_MIN {
                size_to_class(obj.size as usize).unwrap_or(PROF_CLASS_LARGE)
            } else {
                PROF_CLASS_LARGE
            };
            *e.class_mix.entry(class).or_insert(0) += 1;
            inner.live.insert(
                addr,
                LiveObj {
                    site: obj.site,
                    seq: obj.seq,
                    size: obj.size,
                    crossings: obj.crossings,
                    arena: obj.arena,
                },
            );
        }
        self.seq.store(max_seq.saturating_add(1), Ordering::Relaxed);
        // Re-compact every log so stale records (pruned above) do not
        // linger on PM and trip a later offline audit of a clean image.
        for a in 0..self.arenas {
            self.compact_locked(&mut inner, pool, t, a);
        }
        stats
    }

    // -----------------------------------------------------------------------
    // Reporting
    // -----------------------------------------------------------------------

    /// Capture the retained-set report: every site still holding
    /// estimated live bytes. Called from `quiesce()`.
    pub(crate) fn mark_retained(&self) {
        let mut inner = self.inner.write().unwrap();
        let rows: Vec<RetainedSite> = inner
            .sites
            .iter()
            .filter(|(_, s)| s.live_bytes > 0)
            .map(|(&site, s)| RetainedSite {
                site,
                label: s.label.clone(),
                live_bytes: s.live_bytes,
                live_objects: s.live_objects,
            })
            .collect();
        inner.retained = rows;
    }

    /// The retained-set rows captured by the last `quiesce()`.
    pub fn retained(&self) -> Vec<RetainedSite> {
        self.inner.read().unwrap().retained.clone()
    }

    /// Estimated live bytes summed over all sites.
    pub fn estimated_live_bytes(&self) -> u64 {
        self.inner.read().unwrap().sites.values().map(|s| s.live_bytes).sum()
    }

    /// Number of distinct sites observed.
    pub fn site_count(&self) -> usize {
        self.inner.read().unwrap().sites.len()
    }

    /// Number of currently tracked sampled live objects.
    pub fn live_sampled(&self) -> usize {
        self.inner.read().unwrap().live.len()
    }

    /// `[samples, appends, free_hits, compactions, dropped]` counters.
    pub(crate) fn counters(&self) -> [u64; 5] {
        [
            self.samples.load(Ordering::Relaxed),
            self.appends.load(Ordering::Relaxed),
            self.free_hits.load(Ordering::Relaxed),
            self.compactions.load(Ordering::Relaxed),
            self.dropped.load(Ordering::Relaxed),
        ]
    }

    /// Full profile dump as a JSON object: site table (BTreeMap order,
    /// deterministic) and retained-set rows.
    pub fn json(&self) -> String {
        let inner = self.inner.read().unwrap();
        let mut o = JsonObj::new();
        o.field_u64("schema_version", SCHEMA_VERSION);
        o.field_u64("sample_bytes", self.period);
        o.field_u64("samples", self.samples.load(Ordering::Relaxed));
        o.field_u64("appends", self.appends.load(Ordering::Relaxed));
        o.field_u64("frees", self.free_hits.load(Ordering::Relaxed));
        o.field_u64("compactions", self.compactions.load(Ordering::Relaxed));
        o.field_u64("dropped", self.dropped.load(Ordering::Relaxed));
        o.field_u64("live_sampled", inner.live.len() as u64);
        o.field_u64("estimated_live_bytes", inner.sites.values().map(|s| s.live_bytes).sum());
        let mut sites = String::from("[");
        for (i, (site, s)) in inner.sites.iter().enumerate() {
            if i > 0 {
                sites.push(',');
            }
            let mut so = JsonObj::new();
            so.field_str("site", &format!("{site:016x}"));
            so.field_str("label", &s.label);
            so.field_u64("live_bytes_est", s.live_bytes);
            so.field_u64("live_objects_est", s.live_objects);
            so.field_u64("alloc_bytes_est", s.alloc_bytes);
            so.field_u64("allocs", s.allocs);
            so.field_u64("frees", s.frees);
            let mut mix = String::from("[");
            for (j, (class, n)) in s.class_mix.iter().enumerate() {
                if j > 0 {
                    mix.push(',');
                }
                mix.push_str(&format!("{{\"class\":{class},\"samples\":{n}}}"));
            }
            mix.push(']');
            so.field_raw("classes", &mix);
            sites.push_str(&so.finish());
        }
        sites.push(']');
        o.field_raw("sites", &sites);
        let mut ret = String::from("[");
        for (i, r) in inner.retained.iter().enumerate() {
            if i > 0 {
                ret.push(',');
            }
            let mut ro = JsonObj::new();
            ro.field_str("site", &format!("{:016x}", r.site));
            ro.field_str("label", &r.label);
            ro.field_u64("live_bytes_est", r.live_bytes);
            ro.field_u64("live_objects_est", r.live_objects);
            ret.push_str(&ro.finish());
        }
        ret.push(']');
        o.field_raw("retained", &ret);
        o.finish()
    }

    /// Collapsed-stack dump: one `label live_bytes_estimate` line per
    /// site, flamegraph-compatible.
    pub fn collapsed(&self) -> String {
        let inner = self.inner.read().unwrap();
        let mut out = String::new();
        for s in inner.sites.values() {
            out.push_str(&s.label);
            out.push(' ');
            out.push_str(&s.live_bytes.to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_is_exact() {
        assert_eq!(PROF_HALF_RECORDS, 1023);
        assert_eq!(
            PROF_LOG_HEADER_BYTES + 2 * PROF_HALF_RECORDS * PROF_RECORD_BYTES,
            PROF_LOG_BYTES
        );
    }

    #[test]
    fn countdown_crossings_are_unbiased() {
        let p = Prof::new(1024, 0, 1);
        let mut acc = 0u64;
        let mut crossings = 0u64;
        let n = 10_000usize;
        let each = 96usize;
        for _ in 0..n {
            crossings += p.crossings(&mut acc, each);
        }
        let est = crossings * 1024 + acc;
        assert_eq!(est as usize, n * each, "countdown conserves bytes exactly");
    }

    #[test]
    fn with_site_overrides_and_restores() {
        assert!(SITE_TAG.with(Cell::get).is_none());
        let (tag, label) = with_site("alpha", capture_site);
        assert_eq!(tag, site_tag("alpha"));
        assert_eq!(label, "alpha");
        assert!(SITE_TAG.with(Cell::get).is_none());
        // Nested override wins, outer restored after.
        with_site("outer", || {
            let (t2, _) = with_site("inner", capture_site);
            assert_eq!(t2, site_tag("inner"));
            let (t3, _) = capture_site();
            assert_eq!(t3, site_tag("outer"));
        });
    }

    #[test]
    fn backtrace_hash_is_stable_within_process() {
        fn here() -> (u64, String) {
            capture_site()
        }
        let a = here();
        let b = here();
        assert_eq!(a.0, b.0, "same call path hashes to the same site");
        assert_eq!(a.1, b.1);
    }

    #[test]
    fn strip_hex_removes_addresses() {
        assert_eq!(strip_hex("foo::bar at 0x7f3a9c00de11"), "foo::bar at ");
        assert_eq!(strip_hex("no addresses"), "no addresses");
        assert_eq!(strip_hex("0xabc mid 0xDEF end"), " mid  end");
    }
}
