//! Allocator-wide telemetry: per-thread event probes, lock statistics,
//! op-latency histograms over the virtual PM clock, and a dependency-free
//! JSON writer for machine-readable benchmark output.
//!
//! Telemetry is strictly *observational*: every counter is volatile
//! (DRAM-side) state, and latency is sampled from the PM virtual clock
//! that the cost model already maintains. Enabling or disabling telemetry
//! therefore never changes a [`nvalloc_pmem::StatsSnapshot`] counter or a
//! modelled elapsed time — a property the workspace tests assert.
//!
//! Four layers:
//!
//! * [`Probe`] — one per allocator thread: a cache-line-aligned block of
//!   counters only that thread writes, holding the
//!   [`crate::trace::EventKind`] counts, the per-class tcache counts and
//!   the op histograms. The allocator's [`Probes`] registry folds the
//!   retired total and every live block whenever a snapshot is read.
//! * [`TimedMutex`] / [`TimedGuard`] — the one lock-timing guard, shared
//!   by arena locks, large-shard locks and the baselines' mutexes; each
//!   lock keeps its [`LockStats`] beside it, written only by its holder.
//! * [`LatencyHistogram`] / [`OpHistograms`] — log2-bucketed histograms of
//!   modelled nanoseconds per operation kind ([`OpKind`]).
//! * [`json`] — a minimal serde-free JSON-lines writer used by
//!   [`MetricsSnapshot::to_json`] and the benchmark harness.

use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
// nvalloc-lint: allow(determinism) — lock wait/hold timing only; never feeds persistent state.
use std::time::Instant;

use nvalloc_pmem::{PmThread, TracerHandle};
use parking_lot::{Mutex, MutexGuard};

use crate::size_class::NUM_CLASSES;
use crate::trace::EventKind;

/// Number of log2 latency buckets. Bucket 0 holds 0 ns samples; bucket
/// `b > 0` holds samples in `[2^(b-1), 2^b)` ns; the last bucket also
/// absorbs everything larger.
pub const HIST_BUCKETS: usize = 64;

/// Operation kinds with their own latency histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// `malloc_to` served by the small (slab) path.
    MallocSmall,
    /// `malloc_to` served by the large (extent) path.
    MallocLarge,
    /// `free_from` (either path).
    Free,
    /// A slab-morph transform (nested inside a small-malloc refill).
    Morph,
    /// A booklog slow-GC pass.
    SlowGc,
    /// Pool recovery (`NvAllocator::recover`).
    Recovery,
}

impl OpKind {
    /// Every kind, in stable (indexing and JSON) order.
    pub const ALL: [OpKind; 6] = [
        OpKind::MallocSmall,
        OpKind::MallocLarge,
        OpKind::Free,
        OpKind::Morph,
        OpKind::SlowGc,
        OpKind::Recovery,
    ];

    /// Number of kinds.
    pub const COUNT: usize = Self::ALL.len();

    #[inline]
    pub(crate) fn index(self) -> usize {
        self as usize
    }

    /// Snake-case label used as the JSON key.
    pub fn label(self) -> &'static str {
        match self {
            OpKind::MallocSmall => "malloc_small",
            OpKind::MallocLarge => "malloc_large",
            OpKind::Free => "free",
            OpKind::Morph => "morph",
            OpKind::SlowGc => "slow_gc",
            OpKind::Recovery => "recovery",
        }
    }
}

/// The log2 bucket index a sample of `ns` nanoseconds falls into.
#[inline]
pub fn bucket_index(ns: u64) -> usize {
    if ns == 0 {
        0
    } else {
        (64 - ns.leading_zeros() as usize).min(HIST_BUCKETS - 1)
    }
}

/// Inclusive lower bound of bucket `b` (0 for buckets 0 and 1).
pub fn bucket_low(b: usize) -> u64 {
    if b <= 1 {
        0
    } else {
        1u64 << (b - 1)
    }
}

/// Exclusive upper bound of bucket `b` (`u64::MAX` for the last bucket).
pub fn bucket_high(b: usize) -> u64 {
    if b == 0 {
        1
    } else if b >= HIST_BUCKETS - 1 {
        u64::MAX
    } else {
        1u64 << b
    }
}

/// A log2-bucketed latency histogram (fixed-size, allocation-free).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyHistogram {
    /// Sample counts per bucket; see [`bucket_index`].
    pub buckets: [u64; HIST_BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram { buckets: [0; HIST_BUCKETS] }
    }
}

impl LatencyHistogram {
    /// Record one sample of `ns` modelled nanoseconds.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.buckets[bucket_index(ns)] += 1;
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// True when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.buckets.iter().all(|&b| b == 0)
    }

    /// Add every bucket of `other` into `self`.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }

    /// Bucket-wise saturating difference `self - earlier`.
    pub fn since(&self, earlier: &LatencyHistogram) -> LatencyHistogram {
        let mut out = LatencyHistogram::default();
        for (i, o) in out.buckets.iter_mut().enumerate() {
            *o = self.buckets[i].saturating_sub(earlier.buckets[i]);
        }
        out
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) of the recorded samples in
    /// nanoseconds, linearly interpolated within the containing log2
    /// bucket between [`bucket_low`] and [`bucket_high`]. Returns 0 for
    /// an empty histogram. Deterministic: the same buckets always yield
    /// the same value, so bench and core percentile columns agree by
    /// construction.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // 1-based rank of the sample the quantile falls on.
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= rank {
                let lo = bucket_low(b);
                // The open upper bound of the last bucket is u64::MAX;
                // cap the interpolation span so the result stays finite.
                let hi = bucket_high(b).max(lo + 1);
                let within = (rank - seen) as f64 / n as f64;
                let est = lo as f64 + (hi - lo) as f64 * within;
                return est as u64;
            }
            seen += n;
        }
        bucket_high(HIST_BUCKETS - 1)
    }
}

/// One latency histogram per [`OpKind`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpHistograms {
    /// Histograms indexed in [`OpKind::ALL`] order.
    pub hists: [LatencyHistogram; OpKind::COUNT],
}

impl OpHistograms {
    /// Record one sample for `kind`.
    #[inline]
    pub fn record(&mut self, kind: OpKind, ns: u64) {
        self.hists[kind.index()].record(ns);
    }

    /// The histogram for `kind`.
    pub fn of(&self, kind: OpKind) -> &LatencyHistogram {
        &self.hists[kind.index()]
    }

    /// Histogram-wise saturating difference `self - earlier`.
    pub fn since(&self, earlier: &OpHistograms) -> OpHistograms {
        let mut out = OpHistograms::default();
        for (i, o) in out.hists.iter_mut().enumerate() {
            *o = self.hists[i].since(&earlier.hists[i]);
        }
        out
    }
}

// ----- per-thread probes -----

/// Per-class tcache kinds, in code order from [`EventKind::TcacheHit`].
const TCACHE_KINDS: usize = 4;
/// Probe-block slots: a count per event code (indexed by code), blocks
/// returned by remote drains, per-class tcache counts, op histograms.
const DRAINED: usize = EventKind::ALL.len() + 1;
const TCACHE: usize = DRAINED + 1;
const HISTS: usize = TCACHE + TCACHE_KINDS * NUM_CLASSES;
const SLOTS: usize = HISTS + OpKind::COUNT * HIST_BUCKETS;

/// One thread's counters: a cache-line-aligned block that only its
/// owning thread writes, so recording never moves a line between cores.
#[derive(Debug)]
#[repr(align(64))]
struct ProbeBlock([AtomicU64; SLOTS]);

/// Single-writer add: a relaxed load and store, never a
/// read-modify-write. Only one thread at a time may write `c`; readers
/// load it relaxed.
#[inline]
fn add_single_writer(c: &AtomicU64, n: u64) {
    c.store(c.load(Ordering::Relaxed) + n, Ordering::Relaxed);
}

impl ProbeBlock {
    /// Add to one slot (only the owning thread writes its block).
    #[inline]
    fn add(&self, slot: usize, n: u64) {
        add_single_writer(&self.0[slot], n);
    }

    fn add_into(&self, sum: &mut [u64]) {
        for (s, c) in sum.iter_mut().zip(self.0.iter()) {
            *s += c.load(Ordering::Relaxed);
        }
    }
}

/// The allocator's probe registry: every live probe block plus the total
/// of dropped ones, under one mutex taken only at probe create and drop
/// and at snapshot — never on an allocator operation.
#[derive(Debug)]
pub struct Probes {
    enabled: bool,
    set: Mutex<ProbeSet>,
}

#[derive(Debug)]
struct ProbeSet {
    live: Vec<Arc<ProbeBlock>>,
    retired: Vec<u64>,
}

impl Probes {
    /// A registry; `enabled = false` hands out probes that record nothing.
    pub fn new(enabled: bool) -> Probes {
        Probes { enabled, set: Mutex::new(ProbeSet { live: Vec::new(), retired: vec![0; SLOTS] }) }
    }

    /// A new probe for one thread, registered until it drops.
    pub fn probe(self: &Arc<Self>) -> Probe {
        if !self.enabled {
            return Probe { reg: None };
        }
        let block = Arc::new(ProbeBlock([const { AtomicU64::new(0) }; SLOTS]));
        self.set.lock().live.push(Arc::clone(&block));
        Probe { reg: Some((Arc::clone(self), block)) }
    }

    /// The retired total plus every live block, as a snapshot whose other
    /// fields (locks, booklog, extents, trace, pmsan, profiler) are zero.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let set = self.set.lock();
        let mut sum = set.retired.clone();
        for b in &set.live {
            b.add_into(&mut sum);
        }
        drop(set);
        let n = |k: EventKind| sum[k.code() as usize];
        let mut s = MetricsSnapshot {
            cursor_rotations: n(EventKind::CursorRotate),
            slab_allocs: n(EventKind::SlabCarve),
            slab_retires: n(EventKind::SlabRetire),
            morph_candidates: n(EventKind::MorphScan),
            morph_started: n(EventKind::MorphStart),
            morph_completed: n(EventKind::MorphDone),
            morph_undone: n(EventKind::MorphUndone),
            wal_appends: n(EventKind::WalAppend),
            wal_replays: n(EventKind::WalReplay),
            free_locks: n(EventKind::FreeLocked),
            free_fast_local: n(EventKind::FreeFastLocal),
            free_remote: n(EventKind::RemotePush),
            remote_drain_batches: n(EventKind::RemoteDrain),
            remote_drained: sum[DRAINED],
            remote_drain_foreign: n(EventKind::RemoteDrainForeign),
            ..MetricsSnapshot::default()
        };
        for (class, c) in sum[TCACHE..HISTS].chunks_exact(TCACHE_KINDS).enumerate() {
            let [hits, misses, refills, flushes] = [c[0], c[1], c[2], c[3]];
            let c = TcacheClassCounters { class, hits, misses, refills, flushes };
            s.tcache_hits += c.hits;
            s.tcache_misses += c.misses;
            s.tcache_refills += c.refills;
            s.tcache_flushes += c.flushes;
            s.tcache_by_class.push(c);
        }
        for (h, b) in s.hists.hists.iter_mut().zip(sum[HISTS..].chunks_exact(HIST_BUCKETS)) {
            h.buckets.copy_from_slice(b);
        }
        s
    }
}

/// One thread's instrumentation point: counts [`EventKind`]s and op
/// latencies into its own block and pushes ring kinds to the thread's
/// ring. On drop its counts join the registry's retired total.
#[derive(Debug)]
pub struct Probe {
    reg: Option<(Arc<Probes>, Arc<ProbeBlock>)>,
}

impl Probe {
    /// Record one event: count it and, for a ring kind, emit it through
    /// `pm`'s tracer. Kinds count once, except: tcache kinds per class
    /// `a`; `MorphScan`, `MorphUndone` and `WalReplay` by `a`;
    /// `RemoteDrain` also adds `b` blocks drained.
    #[inline]
    pub fn event(&self, pm: &PmThread, kind: EventKind, a: u64, b: u64) {
        if let Some((_, blk)) = &self.reg {
            let slot = kind.code() as usize;
            match kind {
                EventKind::TcacheHit
                | EventKind::TcacheMiss
                | EventKind::TcacheRefillAttempt
                | EventKind::TcacheOverflow => {
                    let k = slot - EventKind::TcacheHit.code() as usize;
                    blk.add(TCACHE + TCACHE_KINDS * a as usize + k, 1);
                }
                EventKind::MorphScan | EventKind::MorphUndone | EventKind::WalReplay => {
                    blk.add(slot, a);
                }
                EventKind::RemoteDrain => {
                    blk.add(slot, 1);
                    blk.add(DRAINED, b);
                }
                _ => blk.add(slot, 1),
            }
        }
        if kind.on_ring() {
            pm.trace(kind.code(), a, b);
        }
    }

    /// Record one `op` latency sample of `ns` modelled nanoseconds.
    #[inline]
    pub fn record(&self, op: OpKind, ns: u64) {
        if let Some((_, blk)) = &self.reg {
            blk.add(HISTS + op.index() * HIST_BUCKETS + bucket_index(ns), 1);
        }
    }
}

impl Drop for Probe {
    fn drop(&mut self) {
        let Some((probes, block)) = self.reg.take() else { return };
        let mut set = probes.set.lock();
        let ProbeSet { live, retired } = &mut *set;
        block.add_into(retired);
        live.retain(|b| !Arc::ptr_eq(b, &block));
    }
}

// ----- lock timing -----

/// A log2-bucketed histogram beside one lock: the atomic counterpart of
/// [`LatencyHistogram`], written only by the lock's holder and read by
/// anyone.
#[derive(Debug)]
struct AtomicHistogram {
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        AtomicHistogram { buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS] }
    }
}

impl AtomicHistogram {
    /// Record one sample of `ns` nanoseconds (single writer: the holder).
    #[inline]
    fn record(&self, ns: u64) {
        add_single_writer(&self.buckets[bucket_index(ns)], 1);
    }

    /// A plain-histogram copy of the current bucket counts.
    fn snapshot(&self) -> LatencyHistogram {
        let mut out = LatencyHistogram::default();
        for (o, b) in out.buckets.iter_mut().zip(self.buckets.iter()) {
            *o = b.load(Ordering::Relaxed);
        }
        out
    }
}

/// One counted acquisition in this many has its hold timed even when it
/// neither blocked nor traced: those whose index is a multiple of it.
pub(crate) const HOLD_SAMPLE: u64 = 64;

/// Acquisition statistics of one mutex, kept beside it in a
/// [`TimedMutex`]: only the lock's holder writes them, just before it
/// releases, so every counter and bucket is a relaxed load and store.
/// Wait and hold are wall-clock nanoseconds, which the modelled PM clock
/// never sees; an acquisition that found the lock free waited 0 ns.
/// Waits are exact. Holds are timed only for the acquisitions that
/// [`TimedMutex::timed`] samples; the hold histogram holds those samples,
/// and `hold_ns` adds each one weighted by the acquisitions it stands for.
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct LockStats {
    enabled: bool,
    acquires: AtomicU64,
    contended: AtomicU64,
    wait_ns: AtomicU64,
    hold_ns: AtomicU64,
    /// Counted acquisitions since the previous timed hold.
    untimed: AtomicU64,
    wait_hist: AtomicHistogram,
    hold_hist: AtomicHistogram,
}

impl LockStats {
    /// Counted acquisitions.
    pub fn acquires(&self) -> u64 {
        self.acquires.load(Ordering::Relaxed)
    }

    /// Acquisitions that found the lock held and had to block.
    pub fn contended(&self) -> u64 {
        self.contended.load(Ordering::Relaxed)
    }

    /// Total wall-clock nanoseconds spent waiting to acquire.
    pub fn wait_ns(&self) -> u64 {
        self.wait_ns.load(Ordering::Relaxed)
    }

    /// Estimated total wall-clock nanoseconds the lock was held: each
    /// timed hold weighted by the counted acquisitions since the previous
    /// one, itself included. Exact when every acquisition is timed;
    /// otherwise it lags by the at most `HOLD_SAMPLE - 1` acquisitions
    /// after the last timed one.
    pub fn hold_ns(&self) -> u64 {
        self.hold_ns.load(Ordering::Relaxed)
    }

    /// Count one acquisition, with its hold if it was timed. Called by the
    /// holder only, while it still holds the lock, so no two writers ever
    /// meet.
    fn record(&self, contended: bool, wait_ns: u64, hold_ns: Option<u64>) {
        add_single_writer(&self.acquires, 1);
        add_single_writer(&self.contended, contended as u64);
        add_single_writer(&self.wait_ns, wait_ns);
        self.wait_hist.record(wait_ns);
        match hold_ns {
            Some(ns) => {
                let weight = self.untimed.load(Ordering::Relaxed) + 1;
                add_single_writer(&self.hold_ns, ns.saturating_mul(weight));
                self.untimed.store(0, Ordering::Relaxed);
                self.hold_hist.record(ns);
            }
            None => add_single_writer(&self.untimed, 1),
        }
    }

    /// Add the wait and hold totals and histograms into `s`.
    pub fn fold_into(&self, s: &mut MetricsSnapshot) {
        s.lock_wait_ns += self.wait_ns();
        s.lock_hold_ns += self.hold_ns();
        s.lock_wait_hist.merge(&self.wait_hist.snapshot());
        s.lock_hold_hist.merge(&self.hold_hist.snapshot());
    }
}

/// A mutex with its [`LockStats`] beside it. [`TimedMutex::timed`] is the
/// counted acquisition the allocator paths use; [`TimedMutex::lock`] and
/// [`TimedMutex::try_lock`] are the uncounted ones observers use.
#[derive(Debug)]
pub struct TimedMutex<T> {
    lock: Mutex<T>,
    stats: LockStats,
}

impl<T> TimedMutex<T> {
    /// Wrap `value`; with `enabled = false` a counted acquisition records
    /// nothing.
    pub fn new(value: T, enabled: bool) -> TimedMutex<T> {
        TimedMutex { lock: Mutex::new(value), stats: LockStats { enabled, ..LockStats::default() } }
    }

    /// Acquire without counting.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.lock.lock()
    }

    /// Try to acquire without blocking and without counting.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        self.lock.try_lock()
    }

    /// The lock's statistics.
    pub fn stats(&self) -> &LockStats {
        &self.stats
    }

    /// Counted acquisition. It tries the lock first: one that finds it
    /// free waited 0 ns and reads no clock, unless its hold is timed; one
    /// that must block (contended) reads the clock before blocking and
    /// again once it holds the lock. A hold is timed for a contended
    /// acquisition, for one made with `pm` tracing (whose release emits a
    /// `LockAcquire` stamped at the acquisition's virtual time), and for
    /// every `HOLD_SAMPLE`th (64th) counted acquisition, starting with the
    /// first; the release of a timed hold reads the clock once more. All
    /// statistics are written at release, while the lock is still held.
    /// Stats off and no tracer: a bare `lock()`, no clock read, no atomic.
    pub fn timed(&self, pm: Option<&PmThread>) -> TimedGuard<'_, T> {
        let trace = pm.and_then(|p| Some((p.tracer()?.clone(), p.virtual_ns())));
        if !self.stats.enabled && trace.is_none() {
            return TimedGuard { guard: self.lock.lock(), timing: None };
        }
        let (guard, held, wait_ns) = match self.lock.try_lock() {
            Some(guard) => {
                let timed = trace.is_some() || self.stats.acquires().is_multiple_of(HOLD_SAMPLE);
                (guard, timed.then(Instant::now), None)
            }
            None => {
                let wait = Instant::now();
                let guard = self.lock.lock();
                let held = Instant::now();
                (guard, Some(held), Some(held.duration_since(wait).as_nanos() as u64))
            }
        };
        let stats = self.stats.enabled.then_some(&self.stats);
        TimedGuard { guard, timing: Some(Timing { stats, wait_ns, held, trace }) }
    }
}

/// The guard of a [`TimedMutex::timed`] acquisition; on drop it records
/// the acquisition, and a timed hold, while the lock is still held.
pub struct TimedGuard<'a, T> {
    guard: MutexGuard<'a, T>,
    timing: Option<Timing<'a>>,
}

struct Timing<'a> {
    stats: Option<&'a LockStats>,
    /// Wall-clock wait of a contended acquisition; `None` when the lock
    /// was free.
    wait_ns: Option<u64>,
    /// When a timed hold began; `None` when this hold is not timed.
    held: Option<Instant>,
    /// The acquiring thread's tracer and virtual-clock time.
    trace: Option<(TracerHandle, u64)>,
}

impl<T> Deref for TimedGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> DerefMut for TimedGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<T> Drop for TimedGuard<'_, T> {
    fn drop(&mut self) {
        // Runs before the `guard` field drops, so the hold is measured
        // and the statistics are written while the lock is still held.
        let Some(t) = &self.timing else { return };
        let hold_ns = t.held.map(|h| h.elapsed().as_nanos() as u64);
        let wait_ns = t.wait_ns.unwrap_or(0);
        if let Some(s) = t.stats {
            s.record(t.wait_ns.is_some(), wait_ns, hold_ns);
        }
        if let Some((tracer, at_ns)) = &t.trace {
            tracer.emit(*at_ns, EventKind::LockAcquire.code(), wait_ns, hold_ns.unwrap_or(0));
        }
    }
}

/// Tcache event counts for one size class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TcacheClassCounters {
    /// Size class index.
    pub class: usize,
    /// Cache hits.
    pub hits: u64,
    /// Cache misses.
    pub misses: u64,
    /// Refill attempts.
    pub refills: u64,
    /// Full-cache flushes back to the slab.
    pub flushes: u64,
}

impl TcacheClassCounters {
    fn any(&self) -> bool {
        self.hits | self.misses | self.refills | self.flushes != 0
    }

    fn since(&self, earlier: &TcacheClassCounters) -> TcacheClassCounters {
        TcacheClassCounters {
            class: self.class,
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            refills: self.refills.saturating_sub(earlier.refills),
            flushes: self.flushes.saturating_sub(earlier.flushes),
        }
    }
}

/// Version of the exported JSON surfaces ([`MetricsSnapshot::to_json`],
/// timeline JSON-lines, profile dumps). External scrapers key on this to
/// detect format changes; bump it whenever a field is renamed, removed,
/// or changes meaning (pure additions may keep the version).
///
/// History: 1 = metrics + timeline; 2 = explicit `schema_version` field
/// everywhere + profiler fields/dumps; 3 = the slow-path offload thread
/// removed, taking its four metrics counters, the per-arena queue-depth
/// timeline gauge, and the profile dump's `snapshots` ring with it;
/// 4 = the slab reservoir removed, taking the metrics
/// `reservoir_hits`/`reservoir_misses` fields, the per-arena timeline
/// `reservoir` gauge and the Chrome `queues` counter's `reservoir` arg;
/// 5 = the profiler's persistent sidelog removed, taking the metrics
/// `prof_appends`/`prof_compactions`/`prof_dropped` fields and the
/// profile dump's `appends`/`compactions`/`dropped` keys.
pub const SCHEMA_VERSION: u64 = 5;

/// How one [`MetricsSnapshot`] field diffs and writes itself. The
/// histograms are diffed by their own `since` and written by hand.
trait Metric {
    /// Saturating difference `self - earlier`.
    fn since(&self, earlier: &Self) -> Self;
    /// Write the field into `o` under `key`.
    fn write(&self, o: &mut json::JsonObj, key: &str);
}

impl Metric for u64 {
    fn since(&self, earlier: &u64) -> u64 {
        self.saturating_sub(*earlier)
    }

    fn write(&self, o: &mut json::JsonObj, key: &str) {
        o.field_u64(key, *self);
    }
}

/// Per-shard counters: entries missing from `earlier` count as zero.
impl Metric for Vec<u64> {
    fn since(&self, earlier: &Self) -> Self {
        self.iter()
            .enumerate()
            .map(|(i, v)| v.saturating_sub(*earlier.get(i).unwrap_or(&0)))
            .collect()
    }

    fn write(&self, o: &mut json::JsonObj, key: &str) {
        o.field_raw(key, &json::u64_array(self));
    }
}

/// Per-class counters: classes missing from `earlier` count as zero,
/// and only classes with activity are written.
impl Metric for Vec<TcacheClassCounters> {
    fn since(&self, earlier: &Self) -> Self {
        let zero = TcacheClassCounters::default();
        self.iter().enumerate().map(|(i, c)| c.since(earlier.get(i).unwrap_or(&zero))).collect()
    }

    fn write(&self, o: &mut json::JsonObj, key: &str) {
        let classes: Vec<String> = self
            .iter()
            .filter(|c| c.any())
            .map(|c| {
                let mut e = json::JsonObj::new();
                e.field_u64("class", c.class as u64);
                e.field_u64("hits", c.hits);
                e.field_u64("misses", c.misses);
                e.field_u64("refills", c.refills);
                e.field_u64("flushes", c.flushes);
                e.finish()
            })
            .collect();
        o.field_raw(key, &format!("[{}]", classes.join(",")));
    }
}

/// Declares [`MetricsSnapshot`], its `since` and its `to_json` from one
/// table of documented fields in JSON order. `to_json` writes each field
/// under its own name after `schema_version`, except those marked
/// `[manual]`: the histograms, which it writes under `hist` and
/// `latency`, and the always-0 `reservoir_*` pair, which it leaves out.
macro_rules! metrics_snapshot {
    ($($(#[doc = $doc:literal])* $name:ident: $ty:ty $([$manual:ident])?,)*) => {
        /// A point-in-time copy of the allocator's internal metrics, cheap to
        /// diff between benchmark phases with [`MetricsSnapshot::since`].
        ///
        /// Allocators without internal telemetry (the baselines) return the
        /// all-zero default from [`crate::api::PmAllocator::metrics`].
        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        pub struct MetricsSnapshot {
            $($(#[doc = $doc])* pub $name: $ty,)*
        }

        impl MetricsSnapshot {
            /// Counter-wise saturating difference `self - earlier` (for phase
            /// measurements). Counters are monotone while an allocator is alive,
            /// so the subtraction only saturates when snapshots from different
            /// allocator instances are mixed; saturating keeps even that case
            /// panic-free. Per-class and per-shard entries missing from
            /// `earlier` are treated as zero.
            pub fn since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
                MetricsSnapshot { $($name: self.$name.since(&earlier.$name),)* }
            }

            /// The snapshot as one JSON object (no trailing newline). Per-class
            /// tcache counters are emitted only for classes with activity;
            /// histograms are emitted as 64-element bucket arrays per op kind.
            pub fn to_json(&self) -> String {
                let mut o = json::JsonObj::new();
                o.field_u64("schema_version", SCHEMA_VERSION);
                $(metrics_snapshot!(@top o, self.$name, $name $(, $manual)?);)*
                self.write_hists(&mut o);
                o.finish()
            }
        }
    };
    (@top $o:ident, $v:expr, $name:ident) => {
        $v.write(&mut $o, stringify!($name))
    };
    (@top $o:ident, $v:expr, $name:ident, manual) => {};
}

metrics_snapshot! {
    /// Tcache hits summed over classes.
    tcache_hits: u64,
    /// Tcache misses summed over classes.
    tcache_misses: u64,
    /// Tcache refills summed over classes.
    tcache_refills: u64,
    /// Tcache full-cache flushes summed over classes.
    tcache_flushes: u64,
    /// Per-class tcache counters (one entry per size class).
    tcache_by_class: Vec<TcacheClassCounters>,
    /// Sub-tcache cursor rotations.
    cursor_rotations: u64,
    /// Slabs carved from the large allocator.
    slab_allocs: u64,
    /// Fully-free slabs returned to the large allocator.
    slab_retires: u64,
    /// Slabs examined as morph candidates.
    morph_candidates: u64,
    /// Morph transforms started.
    morph_started: u64,
    /// Morph transforms completed.
    morph_completed: u64,
    /// Interrupted morphs resolved during recovery.
    morph_undone: u64,
    /// Micro-WAL entries appended.
    wal_appends: u64,
    /// WAL entries replayed during recovery.
    wal_replays: u64,
    /// Mutex acquisitions on the free path (slow frees only).
    free_locks: u64,
    /// Same-thread frees completed on the lock-free fast path.
    free_fast_local: u64,
    /// Cross-arena frees pushed onto a remote-free queue.
    free_remote: u64,
    /// Remote-free queue drain batches (non-empty drains).
    remote_drain_batches: u64,
    /// Blocks returned to slabs by remote-queue drains.
    remote_drained: u64,
    /// Foreign-arena remote queues drained opportunistically by a malloc
    /// slow path (the drain hook; counts non-empty drains).
    remote_drain_foreign: u64,
    /// Large-shard mutex acquisitions on the large-op path (alloc, free,
    /// and slab carve/retire; observer reads are excluded).
    large_lock_acquires: u64,
    /// Large-shard mutex acquisitions that found the lock held and had to
    /// block. `large_lock_contended / large_lock_acquires` is the shard
    /// contention rate.
    large_lock_contended: u64,
    /// Per-shard breakdown of [`Self::large_lock_acquires`], indexed by
    /// shard number.
    large_shard_acquires: Vec<u64>,
    /// Per-shard breakdown of [`Self::large_lock_contended`], indexed by
    /// shard number.
    large_shard_contended: Vec<u64>,
    /// Always 0: the per-arena slab reservoir these counted is gone.
    /// Kept (and left out of [`Self::to_json`]) only because the
    /// benchmark ledger still reads it for its
    /// `arena.reservoir_hit_ratio` row; the next benchmark change
    /// removes the row and these two fields together.
    reservoir_hits: u64 [manual],
    /// Always 0; see [`Self::reservoir_hits`].
    reservoir_misses: u64 [manual],
    /// Wall-clock nanoseconds spent waiting to acquire instrumented
    /// mutexes (arena free/refill locks and large-shard locks for
    /// NVAlloc; the global heap/large/WAL mutexes for the baselines).
    /// Wall-clock, not modelled: contention is a host-scheduling effect
    /// the virtual clocks deliberately do not see.
    lock_wait_ns: u64,
    /// Wall-clock nanoseconds instrumented mutexes were held, estimated
    /// from the timed holds ([`LockStats::hold_ns`]).
    lock_hold_ns: u64,
    /// Histogram of per-acquisition lock wait times (wall-clock ns).
    lock_wait_hist: LatencyHistogram [manual],
    /// Histogram of the timed lock holds (wall-clock ns, unweighted).
    lock_hold_hist: LatencyHistogram [manual],
    /// Flight-recorder events captured (still resident in the rings).
    trace_events: u64,
    /// Flight-recorder events overwritten by drop-oldest wraparound.
    trace_dropped: u64,
    /// Bookkeeping-log entries appended (includes slow-GC copies).
    booklog_appends: u64,
    /// Bookkeeping-log tombstones appended.
    booklog_tombstones: u64,
    /// Fast-GC passes over the booklog.
    booklog_fast_gc_runs: u64,
    /// Empty chunks reaped by fast GC.
    booklog_fast_gc_reaps: u64,
    /// Slow-GC passes over the booklog.
    booklog_slow_gc_runs: u64,
    /// Live entries copied by slow GC.
    booklog_slow_gc_copied: u64,
    /// Dual-chain head flips performed by slow GC.
    booklog_alt_flips: u64,
    /// pmsan: stores over a flushed-but-unfenced line (ordering races).
    pmsan_store_unfenced: u64,
    /// pmsan: fences issued with zero pending flushes.
    pmsan_empty_fence: u64,
    /// pmsan: flushes of lines with nothing unpersisted.
    pmsan_redundant_flush: u64,
    /// pmsan: lines still unpersisted at the shutdown audit.
    pmsan_shutdown_dirty: u64,
    /// pmsan: total persist-ordering violations (sum of the four above).
    pmsan_violations: u64,
    /// Profiler: sampled allocation events ([`crate::prof`]).
    prof_samples: u64,
    /// Profiler: frees of sampled allocations.
    prof_frees: u64,
    /// Extent allocations served by best-fit from the free lists.
    extent_best_fit: u64,
    /// Extent splits (head/tail remainders produced by carving).
    extent_splits: u64,
    /// Extent coalesces with address-adjacent reclaimed neighbours.
    extent_coalesces: u64,
    /// Decay-schedule ticks executed by the large allocator.
    decay_epochs: u64,
    /// Op-latency histograms over the virtual PM clock.
    hists: OpHistograms [manual],
}

impl MetricsSnapshot {
    /// Write the op and lock histograms as bucket arrays under `hist`,
    /// and each op's count and quantiles under `latency`.
    fn write_hists(&self, o: &mut json::JsonObj) {
        let mut h = json::JsonObj::new();
        for kind in OpKind::ALL {
            h.field_raw(kind.label(), &json::u64_array(&self.hists.of(kind).buckets));
        }
        h.field_raw("lock_wait", &json::u64_array(&self.lock_wait_hist.buckets));
        h.field_raw("lock_hold", &json::u64_array(&self.lock_hold_hist.buckets));
        o.field_raw("hist", &h.finish());
        let mut q = json::JsonObj::new();
        for kind in OpKind::ALL {
            let hist = self.hists.of(kind);
            let mut kq = json::JsonObj::new();
            kq.field_u64("count", hist.count());
            kq.field_u64("p50", hist.quantile(0.50));
            kq.field_u64("p95", hist.quantile(0.95));
            kq.field_u64("p99", hist.quantile(0.99));
            kq.field_u64("p999", hist.quantile(0.999));
            q.field_raw(kind.label(), &kq.finish());
        }
        o.field_raw("latency", &q.finish());
    }
}

/// A minimal, serde-free JSON writer (objects, string escaping, numeric
/// arrays) — enough for JSON-lines benchmark records.
pub mod json {
    /// Escape `s` as JSON string *content* (no surrounding quotes).
    pub fn escape(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        for ch in s.chars() {
            match ch {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                '\u{08}' => out.push_str("\\b"),
                '\u{0c}' => out.push_str("\\f"),
                c if (c as u32) < 0x20 => {
                    out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => out.push(c),
            }
        }
        out
    }

    /// Invert [`escape`]: decode JSON string content back to the original
    /// text. Returns `None` on malformed escapes (used by round-trip
    /// tests and quick validators).
    pub fn unescape(s: &str) -> Option<String> {
        let mut out = String::with_capacity(s.len());
        let mut chars = s.chars();
        while let Some(c) = chars.next() {
            if c != '\\' {
                out.push(c);
                continue;
            }
            match chars.next()? {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                '/' => out.push('/'),
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'b' => out.push('\u{08}'),
                'f' => out.push('\u{0c}'),
                'u' => {
                    let hex: String = (0..4).map(|_| chars.next()).collect::<Option<_>>()?;
                    let cp = u32::from_str_radix(&hex, 16).ok()?;
                    out.push(char::from_u32(cp)?);
                }
                _ => return None,
            }
        }
        Some(out)
    }

    /// Render a `u64` slice as a JSON array.
    pub fn u64_array(xs: &[u64]) -> String {
        let mut out = String::with_capacity(2 + xs.len() * 2);
        out.push('[');
        for (i, x) in xs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&x.to_string());
        }
        out.push(']');
        out
    }

    /// An incrementally built JSON object.
    #[derive(Debug, Default)]
    pub struct JsonObj {
        buf: String,
    }

    impl JsonObj {
        /// Start an empty object.
        pub fn new() -> JsonObj {
            JsonObj { buf: String::new() }
        }

        fn key(&mut self, k: &str) {
            if !self.buf.is_empty() {
                self.buf.push(',');
            }
            self.buf.push('"');
            self.buf.push_str(&escape(k));
            self.buf.push_str("\":");
        }

        /// Add a string field (escaped).
        pub fn field_str(&mut self, k: &str, v: &str) {
            self.key(k);
            self.buf.push('"');
            self.buf.push_str(&escape(v));
            self.buf.push('"');
        }

        /// Add an unsigned integer field.
        pub fn field_u64(&mut self, k: &str, v: u64) {
            self.key(k);
            self.buf.push_str(&v.to_string());
        }

        /// Add a float field (`null` for non-finite values).
        pub fn field_f64(&mut self, k: &str, v: f64) {
            self.key(k);
            if v.is_finite() {
                self.buf.push_str(&format!("{v}"));
            } else {
                self.buf.push_str("null");
            }
        }

        /// Add a pre-rendered JSON value verbatim.
        pub fn field_raw(&mut self, k: &str, v: &str) {
            self.key(k);
            self.buf.push_str(v);
        }

        /// Close the object and return it.
        pub fn finish(self) -> String {
            format!("{{{}}}", self.buf)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvalloc_pmem::{LatencyMode, PmemConfig, PmemPool};

    fn pm() -> PmThread {
        PmemPool::new(PmemConfig::default().pool_size(1 << 20).latency_mode(LatencyMode::Off))
            .register_thread()
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);
        // Every sample falls inside its bucket's [low, high) bounds.
        for ns in [0u64, 1, 2, 3, 7, 8, 100, 1 << 20, u64::MAX] {
            let b = bucket_index(ns);
            assert!(ns >= bucket_low(b), "{ns} below bucket {b} low");
            if b < HIST_BUCKETS - 1 {
                assert!(ns < bucket_high(b), "{ns} above bucket {b} high");
            }
        }
    }

    #[test]
    fn histogram_record_merge_since() {
        let mut a = LatencyHistogram::default();
        a.record(0);
        a.record(5);
        a.record(5);
        assert_eq!(a.count(), 3);
        let snap = a;
        a.record(1000);
        let d = a.since(&snap);
        assert_eq!(d.count(), 1);
        assert_eq!(d.buckets[bucket_index(1000)], 1);
        let mut b = LatencyHistogram::default();
        b.record(7);
        b.merge(&a);
        assert_eq!(b.count(), a.count() + 1);
    }

    #[test]
    fn metrics_registry_counts_and_disabled_is_noop() {
        let t = pm();
        let probes = Arc::new(Probes::new(true));
        let p = probes.probe();
        p.event(&t, EventKind::TcacheHit, 3, 0);
        p.event(&t, EventKind::TcacheHit, 3, 0);
        p.event(&t, EventKind::TcacheMiss, 5, 0);
        p.event(&t, EventKind::WalAppend, 0x1000, 7);
        for _ in 0..4 {
            p.event(&t, EventKind::SlabCarve, 0, 0);
        }
        p.event(&t, EventKind::MorphScan, 6, 0);
        p.event(&t, EventKind::RemoteDrain, 1, 9);
        p.record(OpKind::Free, 700);
        let s = probes.snapshot();
        assert_eq!(s.tcache_hits, 2);
        assert_eq!(s.tcache_misses, 1);
        assert_eq!(s.tcache_by_class[3].hits, 2);
        assert_eq!(s.tcache_by_class[5].misses, 1);
        assert_eq!(s.wal_appends, 1);
        assert_eq!(s.slab_allocs, 4);
        assert_eq!(s.morph_candidates, 6, "a scan counts the slabs it examined");
        assert_eq!((s.remote_drain_batches, s.remote_drained), (1, 9));
        assert_eq!(s.hists.of(OpKind::Free).count(), 1);
        // A dropped probe's counts move to the retired total unchanged,
        // and a second live probe adds to them.
        drop(p);
        assert_eq!(probes.snapshot(), s);
        let q = probes.probe();
        q.event(&t, EventKind::TcacheHit, 3, 0);
        assert_eq!(probes.snapshot().tcache_by_class[3].hits, 3);

        let off = Arc::new(Probes::new(false));
        let p = off.probe();
        p.event(&t, EventKind::TcacheHit, 0, 0);
        p.event(&t, EventKind::WalAppend, 0, 0);
        p.record(OpKind::Free, 1);
        let s = off.snapshot();
        assert_eq!(
            s,
            MetricsSnapshot { tcache_by_class: s.tcache_by_class.clone(), ..Default::default() }
        );
        assert_eq!(s.tcache_hits, 0);
    }

    #[test]
    fn snapshot_since_diffs() {
        let t = pm();
        let m = Arc::new(Probes::new(true));
        let p = m.probe();
        p.event(&t, EventKind::TcacheHit, 0, 0);
        p.event(&t, EventKind::WalAppend, 0, 0);
        let a = m.snapshot();
        p.event(&t, EventKind::TcacheHit, 0, 0);
        p.event(&t, EventKind::TcacheOverflow, 1, 0);
        p.event(&t, EventKind::MorphStart, 0, 0);
        p.record(OpKind::MallocSmall, 300);
        let d = m.snapshot().since(&a);
        assert_eq!(d.tcache_hits, 1);
        assert_eq!(d.tcache_by_class[0].hits, 1);
        assert_eq!(d.tcache_flushes, 1);
        assert_eq!(d.wal_appends, 0);
        assert_eq!(d.morph_started, 1);
        assert_eq!(d.hists.of(OpKind::MallocSmall).count(), 1);
        // Mixed-instance diffs saturate instead of panicking.
        let other = Probes::new(true);
        let z = other.snapshot().since(&m.snapshot());
        assert_eq!(z.tcache_hits, 0);
    }

    #[test]
    fn quantile_is_monotone_and_bounded() {
        let mut h = LatencyHistogram::default();
        assert_eq!(h.quantile(0.5), 0, "empty histogram");
        for ns in [100u64, 200, 400, 800, 1600, 3200, 6400, 12800, 25600, 51200] {
            h.record(ns);
        }
        let (p50, p95, p99, p999) =
            (h.quantile(0.50), h.quantile(0.95), h.quantile(0.99), h.quantile(0.999));
        assert!(p50 <= p95 && p95 <= p99 && p99 <= p999, "{p50} {p95} {p99} {p999}");
        // Every quantile lands inside the recorded range's buckets.
        assert!(p50 >= bucket_low(bucket_index(100)));
        assert!(p999 <= bucket_high(bucket_index(51200)));
        // Out-of-range q clamps rather than panicking.
        assert_eq!(h.quantile(-1.0), h.quantile(0.0));
        assert_eq!(h.quantile(2.0), h.quantile(1.0));
        // A single-sample histogram puts every quantile in that bucket.
        let mut one = LatencyHistogram::default();
        one.record(1000);
        let b = bucket_index(1000);
        for q in [0.0, 0.5, 1.0] {
            let v = one.quantile(q);
            assert!(v >= bucket_low(b) && v <= bucket_high(b), "q={q} v={v}");
        }
    }

    #[test]
    fn snapshot_json_has_latency_quantiles() {
        let m = Arc::new(Probes::new(true));
        let p = m.probe();
        p.record(OpKind::MallocSmall, 500);
        p.record(OpKind::MallocSmall, 900);
        let j = m.snapshot().to_json();
        assert!(j.contains("\"latency\":{\"malloc_small\":{\"count\":2,\"p50\":"), "{j}");
        assert!(j.contains("\"p999\":"), "{j}");
    }

    #[test]
    fn json_escape_and_object() {
        assert_eq!(json::escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json::unescape(&json::escape("tab\there")).unwrap(), "tab\there");
        assert_eq!(json::unescape("\\u0041").unwrap(), "A");
        assert!(json::unescape("\\x").is_none());
        let mut o = json::JsonObj::new();
        o.field_str("name", "NVAlloc-LOG");
        o.field_u64("ops", 42);
        o.field_f64("mops", 1.5);
        o.field_raw("arr", &json::u64_array(&[1, 2, 3]));
        assert_eq!(
            o.finish(),
            "{\"name\":\"NVAlloc-LOG\",\"ops\":42,\"mops\":1.5,\"arr\":[1,2,3]}"
        );
    }

    #[test]
    fn metrics_to_json_is_valid_shape() {
        let m = Arc::new(Probes::new(true));
        m.probe().event(&pm(), EventKind::TcacheHit, 2, 0);
        let j = m.snapshot().to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"tcache_hits\":1"));
        assert!(j.contains("\"tcache_by_class\":[{\"class\":2,"));
        assert!(j.contains("\"hist\":{\"malloc_small\":["));
        // Quiet classes are omitted from the per-class list.
        assert!(!j.contains("\"class\":0,"));
    }

    #[test]
    fn uncontended_acquisition_records_a_zero_wait() {
        let m = TimedMutex::new((), true);
        drop(m.timed(None));
        let st = m.stats();
        assert_eq!((st.acquires(), st.contended(), st.wait_ns()), (1, 0, 0));
        let mut s = MetricsSnapshot::default();
        st.fold_into(&mut s);
        assert_eq!(s.lock_wait_hist.buckets[0], 1, "the free lock's wait lands in bucket 0");
        assert_eq!(s.lock_wait_hist.count(), 1);
        assert_eq!(s.lock_hold_hist.count(), 1, "one hold sample");
    }

    fn lock_snapshot(m: &TimedMutex<()>) -> MetricsSnapshot {
        let mut s = MetricsSnapshot::default();
        m.stats().fold_into(&mut s);
        s
    }

    #[test]
    fn untraced_holds_are_sampled_one_in_64_and_weighted() {
        let m = TimedMutex::new((), true);
        let st = m.stats();
        let mut timed = Vec::new();
        for i in 0..130u64 {
            let before = st.hold_ns();
            {
                let _g = m.timed(None);
                // A sampled hold lasts a measurable while; an unsampled
                // one far longer, which `hold_ns` must not see.
                let hold_us = match i {
                    _ if i.is_multiple_of(HOLD_SAMPLE) => 50,
                    1 => 2_000,
                    _ => 0,
                };
                std::thread::sleep(std::time::Duration::from_micros(hold_us));
            }
            let added = st.hold_ns() - before;
            if i.is_multiple_of(HOLD_SAMPLE) {
                timed.push(added);
            } else {
                assert_eq!(added, 0, "acquisition {i} is not timed");
            }
        }
        assert_eq!((st.acquires(), st.contended(), st.wait_ns()), (130, 0, 0));
        let s = lock_snapshot(&m);
        assert_eq!((s.lock_wait_hist.buckets[0], s.lock_wait_hist.count()), (130, 130));
        // Acquisitions 0, 64 and 128, weighted 1, 64 and 64.
        assert_eq!(timed.len(), 3);
        let weights = [1, HOLD_SAMPLE, HOLD_SAMPLE];
        let mut holds = LatencyHistogram::default();
        for (&added, w) in timed.iter().zip(weights) {
            assert_eq!(added % w, 0, "{added} ns is not a hold weighted {w}");
            assert!(added / w >= 50_000, "the sampled hold slept 50 us ({added} ns / {w})");
            holds.record(added / w);
        }
        assert_eq!(s.lock_hold_hist, holds, "the histogram holds the three unweighted samples");
        assert_eq!(s.lock_hold_ns, timed.iter().sum::<u64>());
    }

    #[test]
    fn traced_acquisitions_are_each_timed_with_weight_one() {
        let mut pm = pm();
        let ring = Arc::new(nvalloc_pmem::TraceRing::new(256));
        pm.set_tracer(TracerHandle::new(Arc::clone(&ring), Arc::new(AtomicU64::new(0)), 0));
        let m = TimedMutex::new((), true);
        for _ in 0..70 {
            drop(m.timed(Some(&pm)));
        }
        let holds: Vec<u64> = ring
            .snapshot()
            .iter()
            .filter(|e| e.code == EventKind::LockAcquire.code())
            .map(|e| e.b)
            .collect();
        assert_eq!(holds.len(), 70, "every acquisition emits its hold");
        let mut hist = LatencyHistogram::default();
        holds.iter().for_each(|&h| hist.record(h));
        let s = lock_snapshot(&m);
        assert_eq!(s.lock_hold_hist, hist, "every traced hold is a sample");
        assert_eq!(s.lock_hold_ns, holds.iter().sum::<u64>(), "each weighted 1");
    }

    #[test]
    fn blocked_acquisition_is_timed_with_its_wait() {
        let m = TimedMutex::new((), true);
        drop(m.timed(None)); // acquisition 0: sampled
        let held = std::sync::Barrier::new(2);
        std::thread::scope(|sc| {
            sc.spawn(|| {
                let _g = m.timed(None); // acquisition 1: free, not timed
                held.wait();
                std::thread::sleep(std::time::Duration::from_millis(10));
            });
            held.wait();
            drop(m.timed(None)); // acquisition 2: blocks
        });
        let st = m.stats();
        assert_eq!((st.acquires(), st.contended()), (3, 1));
        assert!(st.wait_ns() > 0, "a blocked acquisition waited");
        let s = lock_snapshot(&m);
        assert_eq!(s.lock_hold_hist.count(), 2, "acquisition 0 and the blocked one are timed");
        assert_eq!((s.lock_wait_hist.count(), s.lock_wait_hist.buckets[0]), (3, 2));
    }

    #[test]
    fn hold_ns_halves_sum_to_the_whole() {
        let m = TimedMutex::new((), true);
        let start = lock_snapshot(&m);
        (0..100).for_each(|_| drop(m.timed(None)));
        let mid = lock_snapshot(&m);
        (0..100).for_each(|_| drop(m.timed(None)));
        let end = lock_snapshot(&m);
        let (a, b) = (mid.since(&start), end.since(&mid));
        assert_eq!(a.lock_hold_ns + b.lock_hold_ns, end.lock_hold_ns);
        // Acquisitions 0 and 64, then 128 and 192.
        assert_eq!((a.lock_hold_hist.count(), b.lock_hold_hist.count()), (2, 2));
    }

    #[test]
    fn guard_with_disabled_stats_records_nothing() {
        let m = TimedMutex::new((), false);
        let g = m.timed(Some(&pm()));
        assert!(g.timing.is_none(), "no tracer and no stats: a bare guard, no clock read");
        drop(g);
        let st = m.stats();
        assert_eq!((st.acquires(), st.contended(), st.wait_ns(), st.hold_ns()), (0, 0, 0, 0));
        let mut s = MetricsSnapshot::default();
        st.fold_into(&mut s);
        assert_eq!(s, MetricsSnapshot::default());
    }
}
