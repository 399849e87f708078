//! Allocator-wide telemetry: internal event counters, op-latency
//! histograms over the virtual PM clock, and a dependency-free JSON
//! writer for machine-readable benchmark output.
//!
//! Telemetry is strictly *observational*: every counter is a volatile
//! (DRAM-side) relaxed atomic or a per-thread plain array, and latency is
//! sampled from the PM virtual clock that the cost model already
//! maintains. Enabling or disabling telemetry therefore never changes a
//! [`nvalloc_pmem::StatsSnapshot`] counter or a modelled elapsed time —
//! a property the workspace tests assert.
//!
//! Three layers:
//!
//! * [`CoreMetrics`] — the atomic registry embedded in the allocator:
//!   per-size-class tcache events, sub-tcache cursor rotations, slab
//!   lifecycle, slab-morphing progress, WAL traffic, and (merged in at
//!   snapshot time) bookkeeping-log and extent-allocator counters.
//! * [`LatencyHistogram`] / [`OpHistograms`] — log2-bucketed histograms of
//!   modelled nanoseconds per operation kind ([`OpKind`]), accumulated in
//!   per-thread plain arrays and merged when a thread handle drops.
//! * [`json`] — a minimal serde-free JSON-lines writer used by
//!   [`MetricsSnapshot::to_json`] and the benchmark harness.

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::size_class::NUM_CLASSES;

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
        match self {
            OpKind::MallocSmall => 0,
            OpKind::MallocLarge => 1,
            OpKind::Free => 2,
            OpKind::Morph => 3,
            OpKind::SlowGc => 4,
            OpKind::Recovery => 5,
        }
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

    /// Merge every histogram of `other` into `self`.
    pub fn merge(&mut self, other: &OpHistograms) {
        for (a, b) in self.hists.iter_mut().zip(other.hists.iter()) {
            a.merge(b);
        }
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

/// Per-size-class tcache event kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcacheEvent {
    /// `malloc` served straight from the cache.
    Hit,
    /// `malloc` found the cache empty (a refill follows).
    Miss,
    /// A refill attempt (freelist, morph, or new slab).
    Refill,
    /// A freed block bypassed the full cache back to its slab.
    Flush,
}

impl TcacheEvent {
    #[inline]
    fn index(self) -> usize {
        match self {
            TcacheEvent::Hit => 0,
            TcacheEvent::Miss => 1,
            TcacheEvent::Refill => 2,
            TcacheEvent::Flush => 3,
        }
    }
}

/// Scalar counters kept as relaxed atomics in [`CoreMetrics`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Sub-tcache cursor rotations (interleaved-tcache round-robin steps).
    CursorRotations,
    /// Slabs carved from the large allocator.
    SlabAllocs,
    /// Fully-free slabs returned to the large allocator.
    SlabRetires,
    /// Slabs examined as morph candidates (LRU scan length).
    MorphCandidates,
    /// Morph transforms started.
    MorphStarted,
    /// Morph transforms completed.
    MorphCompleted,
    /// Interrupted morphs rolled back or forward during recovery.
    MorphUndone,
    /// Micro-WAL entries appended.
    WalAppends,
    /// WAL entries replayed during recovery.
    WalReplays,
    /// Arena/large mutex acquisitions on the free path (slow frees only;
    /// the lock-free fast path never counts here).
    FreeLocks,
    /// Same-thread frees completed on the lock-free fast path.
    FreeFastLocal,
    /// Cross-arena frees pushed onto a remote-free queue.
    FreeRemote,
    /// Remote-free queue drain batches (non-empty drains).
    RemoteDrainBatches,
    /// Blocks returned to slabs by remote-queue drains.
    RemoteDrained,
    /// Foreign-arena remote queues drained opportunistically by a malloc
    /// slow path (the drain hook; counts non-empty drains).
    RemoteDrainForeign,
    /// Wall-clock nanoseconds spent waiting to acquire instrumented
    /// mutexes (arena free/refill locks; large-shard waits are merged in
    /// by the front end at snapshot time).
    LockWaitNs,
    /// Wall-clock nanoseconds instrumented mutexes were held.
    LockHoldNs,
}

const NUM_COUNTERS: usize = 17;
const TCACHE_EVENTS: usize = 4;

/// A lock-free log2-bucketed histogram: the shared-atomic counterpart of
/// [`LatencyHistogram`], for samples recorded from arbitrary threads
/// without a mutex (lock wait/hold probes record from inside and around
/// critical sections, where taking the histogram mutex would itself
/// serialise).
#[derive(Debug)]
pub struct AtomicHistogram {
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        AtomicHistogram { buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS] }
    }
}

impl AtomicHistogram {
    /// Record one sample of `ns` nanoseconds (relaxed; never blocks).
    #[inline]
    pub fn record(&self, ns: u64) {
        self.buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
    }

    /// A plain-histogram copy of the current bucket counts.
    pub fn snapshot(&self) -> LatencyHistogram {
        let mut out = LatencyHistogram::default();
        for (o, b) in out.buckets.iter_mut().zip(self.buckets.iter()) {
            *o = b.load(Ordering::Relaxed);
        }
        out
    }
}

/// The allocator's internal metrics registry.
///
/// All mutation paths are relaxed atomic adds on DRAM-side state (or, for
/// histograms, merges of per-thread plain arrays under a mutex taken once
/// per thread lifetime), so recording perturbs neither the PM cost model
/// nor the virtual clocks. Constructed disabled for configurations with
/// `telemetry = false`; every recording call is then a no-op.
#[derive(Debug)]
pub struct CoreMetrics {
    enabled: bool,
    tcache: Vec<[AtomicU64; TCACHE_EVENTS]>,
    counters: [AtomicU64; NUM_COUNTERS],
    hists: Mutex<OpHistograms>,
    lock_wait: AtomicHistogram,
    lock_hold: AtomicHistogram,
}

impl CoreMetrics {
    /// Create a registry; `enabled = false` turns every recording call
    /// into a no-op and leaves the snapshot all-zero.
    pub fn new(enabled: bool) -> Self {
        CoreMetrics {
            enabled,
            tcache: (0..NUM_CLASSES).map(|_| Default::default()).collect(),
            counters: Default::default(),
            hists: Mutex::new(OpHistograms::default()),
            lock_wait: AtomicHistogram::default(),
            lock_hold: AtomicHistogram::default(),
        }
    }

    /// Whether recording is enabled.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Count one tcache event for `class`.
    #[inline]
    pub fn tcache_event(&self, class: usize, ev: TcacheEvent) {
        if self.enabled {
            self.tcache[class][ev.index()].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Add `n` to a scalar counter.
    #[inline]
    pub fn add(&self, c: Counter, n: u64) {
        if self.enabled && n > 0 {
            self.counters[c as usize].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Add 1 to a scalar counter.
    #[inline]
    pub fn bump(&self, c: Counter) {
        self.add(c, 1);
    }

    /// Merge a thread's local histograms (called when the thread handle
    /// drops, and once by recovery).
    pub fn merge_hists(&self, local: &OpHistograms) {
        if self.enabled {
            self.hists.lock().merge(local);
        }
    }

    /// Record a single histogram sample directly (recovery path).
    pub fn record_hist(&self, kind: OpKind, ns: u64) {
        if self.enabled {
            self.hists.lock().record(kind, ns);
        }
    }

    /// Copy of the registry's merged op histograms (the timeline sampler
    /// diffs consecutive copies into windowed quantiles).
    pub fn hists(&self) -> OpHistograms {
        *self.hists.lock()
    }

    /// Current value of one scalar counter.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize].load(Ordering::Relaxed)
    }

    /// Record one instrumented mutex acquisition: `wait_ns` spent blocked
    /// before the lock was granted, `hold_ns` inside the critical section
    /// (both wall-clock). Lock-free: totals are relaxed atomic adds and
    /// the histograms are [`AtomicHistogram`]s, so recording from a
    /// guard's `Drop` never takes another lock.
    #[inline]
    pub fn record_lock(&self, wait_ns: u64, hold_ns: u64) {
        if self.enabled {
            self.counters[Counter::LockWaitNs as usize].fetch_add(wait_ns, Ordering::Relaxed);
            self.counters[Counter::LockHoldNs as usize].fetch_add(hold_ns, Ordering::Relaxed);
            self.lock_wait.record(wait_ns);
            self.lock_hold.record(hold_ns);
        }
    }

    /// A point-in-time copy of every counter owned by the registry.
    /// Bookkeeping-log and extent-allocator fields are zero here; the
    /// allocator front end merges them in (they live under its large-
    /// allocator lock).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut s = MetricsSnapshot::default();
        for (class, evs) in self.tcache.iter().enumerate() {
            let c = TcacheClassCounters {
                class,
                hits: evs[0].load(Ordering::Relaxed),
                misses: evs[1].load(Ordering::Relaxed),
                refills: evs[2].load(Ordering::Relaxed),
                flushes: evs[3].load(Ordering::Relaxed),
            };
            s.tcache_hits += c.hits;
            s.tcache_misses += c.misses;
            s.tcache_refills += c.refills;
            s.tcache_flushes += c.flushes;
            s.tcache_by_class.push(c);
        }
        let c = |i: Counter| self.counters[i as usize].load(Ordering::Relaxed);
        s.cursor_rotations = c(Counter::CursorRotations);
        s.slab_allocs = c(Counter::SlabAllocs);
        s.slab_retires = c(Counter::SlabRetires);
        s.morph_candidates = c(Counter::MorphCandidates);
        s.morph_started = c(Counter::MorphStarted);
        s.morph_completed = c(Counter::MorphCompleted);
        s.morph_undone = c(Counter::MorphUndone);
        s.wal_appends = c(Counter::WalAppends);
        s.wal_replays = c(Counter::WalReplays);
        s.free_locks = c(Counter::FreeLocks);
        s.free_fast_local = c(Counter::FreeFastLocal);
        s.free_remote = c(Counter::FreeRemote);
        s.remote_drain_batches = c(Counter::RemoteDrainBatches);
        s.remote_drained = c(Counter::RemoteDrained);
        s.remote_drain_foreign = c(Counter::RemoteDrainForeign);
        s.lock_wait_ns = c(Counter::LockWaitNs);
        s.lock_hold_ns = c(Counter::LockHoldNs);
        s.lock_wait_hist = self.lock_wait.snapshot();
        s.lock_hold_hist = self.lock_hold.snapshot();
        s.hists = *self.hists.lock();
        s
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
/// `reservoir` gauge and the Chrome `queues` counter's `reservoir` arg.
pub const SCHEMA_VERSION: u64 = 4;

/// A point-in-time copy of the allocator's internal metrics, cheap to
/// diff between benchmark phases with [`MetricsSnapshot::since`].
///
/// Allocators without internal telemetry (the baselines) return the
/// all-zero default from [`crate::api::PmAllocator::metrics`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Tcache hits summed over classes.
    pub tcache_hits: u64,
    /// Tcache misses summed over classes.
    pub tcache_misses: u64,
    /// Tcache refills summed over classes.
    pub tcache_refills: u64,
    /// Tcache full-cache flushes summed over classes.
    pub tcache_flushes: u64,
    /// Per-class tcache counters (one entry per size class).
    pub tcache_by_class: Vec<TcacheClassCounters>,
    /// Sub-tcache cursor rotations.
    pub cursor_rotations: u64,
    /// Slabs carved from the large allocator.
    pub slab_allocs: u64,
    /// Fully-free slabs returned to the large allocator.
    pub slab_retires: u64,
    /// Slabs examined as morph candidates.
    pub morph_candidates: u64,
    /// Morph transforms started.
    pub morph_started: u64,
    /// Morph transforms completed.
    pub morph_completed: u64,
    /// Interrupted morphs resolved during recovery.
    pub morph_undone: u64,
    /// Micro-WAL entries appended.
    pub wal_appends: u64,
    /// WAL entries replayed during recovery.
    pub wal_replays: u64,
    /// Mutex acquisitions on the free path (slow frees only).
    pub free_locks: u64,
    /// Same-thread frees completed on the lock-free fast path.
    pub free_fast_local: u64,
    /// Cross-arena frees pushed onto a remote-free queue.
    pub free_remote: u64,
    /// Remote-free queue drain batches (non-empty drains).
    pub remote_drain_batches: u64,
    /// Blocks returned to slabs by remote-queue drains.
    pub remote_drained: u64,
    /// Foreign-arena remote queues drained opportunistically by a malloc
    /// slow path (the drain hook; counts non-empty drains).
    pub remote_drain_foreign: u64,
    /// Large-shard mutex acquisitions on the large-op path (alloc, free,
    /// and slab carve/retire; observer reads are excluded).
    pub large_lock_acquires: u64,
    /// Large-shard mutex acquisitions that found the lock held and had to
    /// block. `large_lock_contended / large_lock_acquires` is the shard
    /// contention rate.
    pub large_lock_contended: u64,
    /// Per-shard breakdown of [`Self::large_lock_acquires`], indexed by
    /// shard number.
    pub large_shard_acquires: Vec<u64>,
    /// Per-shard breakdown of [`Self::large_lock_contended`], indexed by
    /// shard number.
    pub large_shard_contended: Vec<u64>,
    /// Always 0: the per-arena slab reservoir these counted is gone.
    /// Kept (and left out of [`Self::to_json`]) only because the
    /// benchmark ledger still reads it for its
    /// `arena.reservoir_hit_ratio` row; the next benchmark change
    /// removes the row and these two fields together.
    pub reservoir_hits: u64,
    /// Always 0; see [`Self::reservoir_hits`].
    pub reservoir_misses: u64,
    /// Wall-clock nanoseconds spent waiting to acquire instrumented
    /// mutexes (arena free/refill locks and large-shard locks for
    /// NVAlloc; the global heap/large/WAL mutexes for the baselines).
    /// Wall-clock, not modelled: contention is a host-scheduling effect
    /// the virtual clocks deliberately do not see.
    pub lock_wait_ns: u64,
    /// Wall-clock nanoseconds instrumented mutexes were held.
    pub lock_hold_ns: u64,
    /// Histogram of per-acquisition lock wait times (wall-clock ns).
    pub lock_wait_hist: LatencyHistogram,
    /// Histogram of per-acquisition lock hold times (wall-clock ns).
    pub lock_hold_hist: LatencyHistogram,
    /// Flight-recorder events captured (still resident in the rings).
    pub trace_events: u64,
    /// Flight-recorder events overwritten by drop-oldest wraparound.
    pub trace_dropped: u64,
    /// Bookkeeping-log entries appended (includes slow-GC copies).
    pub booklog_appends: u64,
    /// Bookkeeping-log tombstones appended.
    pub booklog_tombstones: u64,
    /// Fast-GC passes over the booklog.
    pub booklog_fast_gc_runs: u64,
    /// Empty chunks reaped by fast GC.
    pub booklog_fast_gc_reaps: u64,
    /// Slow-GC passes over the booklog.
    pub booklog_slow_gc_runs: u64,
    /// Live entries copied by slow GC.
    pub booklog_slow_gc_copied: u64,
    /// Dual-chain head flips performed by slow GC.
    pub booklog_alt_flips: u64,
    /// Extent allocations served by best-fit from the free lists.
    pub extent_best_fit: u64,
    /// Extent splits (head/tail remainders produced by carving).
    pub extent_splits: u64,
    /// Extent coalesces with address-adjacent reclaimed neighbours.
    pub extent_coalesces: u64,
    /// Decay-schedule ticks executed by the large allocator.
    pub decay_epochs: u64,
    /// pmsan: stores over a flushed-but-unfenced line (ordering races).
    pub pmsan_store_unfenced: u64,
    /// pmsan: fences issued with zero pending flushes.
    pub pmsan_empty_fence: u64,
    /// pmsan: flushes of lines with nothing unpersisted.
    pub pmsan_redundant_flush: u64,
    /// pmsan: lines still unpersisted at the shutdown audit.
    pub pmsan_shutdown_dirty: u64,
    /// pmsan: total persist-ordering violations (sum of the four above).
    pub pmsan_violations: u64,
    /// Profiler: sampled allocation events ([`crate::prof`]).
    pub prof_samples: u64,
    /// Profiler: provenance-sidelog records appended (ALLOC + FREE).
    pub prof_appends: u64,
    /// Profiler: sampled free events (FREE records for sampled objects).
    pub prof_frees: u64,
    /// Profiler: sidelog half compactions.
    pub prof_compactions: u64,
    /// Profiler: records dropped because both sidelog halves were full of
    /// live records (coverage loss, not corruption).
    pub prof_dropped: u64,
    /// Op-latency histograms over the virtual PM clock.
    pub hists: OpHistograms,
}

impl MetricsSnapshot {
    /// Counter-wise saturating difference `self - earlier` (for phase
    /// measurements). Counters are monotone while an allocator is alive,
    /// so the subtraction only saturates when snapshots from different
    /// allocator instances are mixed; saturating keeps even that case
    /// panic-free. Per-class entries missing from `earlier` are treated
    /// as zero.
    pub fn since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let zero = TcacheClassCounters::default();
        let tcache_by_class = self
            .tcache_by_class
            .iter()
            .enumerate()
            .map(|(i, c)| c.since(earlier.tcache_by_class.get(i).unwrap_or(&zero)))
            .collect();
        MetricsSnapshot {
            tcache_hits: self.tcache_hits.saturating_sub(earlier.tcache_hits),
            tcache_misses: self.tcache_misses.saturating_sub(earlier.tcache_misses),
            tcache_refills: self.tcache_refills.saturating_sub(earlier.tcache_refills),
            tcache_flushes: self.tcache_flushes.saturating_sub(earlier.tcache_flushes),
            tcache_by_class,
            cursor_rotations: self.cursor_rotations.saturating_sub(earlier.cursor_rotations),
            slab_allocs: self.slab_allocs.saturating_sub(earlier.slab_allocs),
            slab_retires: self.slab_retires.saturating_sub(earlier.slab_retires),
            morph_candidates: self.morph_candidates.saturating_sub(earlier.morph_candidates),
            morph_started: self.morph_started.saturating_sub(earlier.morph_started),
            morph_completed: self.morph_completed.saturating_sub(earlier.morph_completed),
            morph_undone: self.morph_undone.saturating_sub(earlier.morph_undone),
            wal_appends: self.wal_appends.saturating_sub(earlier.wal_appends),
            wal_replays: self.wal_replays.saturating_sub(earlier.wal_replays),
            free_locks: self.free_locks.saturating_sub(earlier.free_locks),
            free_fast_local: self.free_fast_local.saturating_sub(earlier.free_fast_local),
            free_remote: self.free_remote.saturating_sub(earlier.free_remote),
            remote_drain_batches: self
                .remote_drain_batches
                .saturating_sub(earlier.remote_drain_batches),
            remote_drained: self.remote_drained.saturating_sub(earlier.remote_drained),
            remote_drain_foreign: self
                .remote_drain_foreign
                .saturating_sub(earlier.remote_drain_foreign),
            large_lock_acquires: self
                .large_lock_acquires
                .saturating_sub(earlier.large_lock_acquires),
            large_lock_contended: self
                .large_lock_contended
                .saturating_sub(earlier.large_lock_contended),
            large_shard_acquires: Self::vec_since(
                &self.large_shard_acquires,
                &earlier.large_shard_acquires,
            ),
            large_shard_contended: Self::vec_since(
                &self.large_shard_contended,
                &earlier.large_shard_contended,
            ),
            reservoir_hits: 0,
            reservoir_misses: 0,
            lock_wait_ns: self.lock_wait_ns.saturating_sub(earlier.lock_wait_ns),
            lock_hold_ns: self.lock_hold_ns.saturating_sub(earlier.lock_hold_ns),
            lock_wait_hist: self.lock_wait_hist.since(&earlier.lock_wait_hist),
            lock_hold_hist: self.lock_hold_hist.since(&earlier.lock_hold_hist),
            trace_events: self.trace_events.saturating_sub(earlier.trace_events),
            trace_dropped: self.trace_dropped.saturating_sub(earlier.trace_dropped),
            booklog_appends: self.booklog_appends.saturating_sub(earlier.booklog_appends),
            booklog_tombstones: self.booklog_tombstones.saturating_sub(earlier.booklog_tombstones),
            booklog_fast_gc_runs: self
                .booklog_fast_gc_runs
                .saturating_sub(earlier.booklog_fast_gc_runs),
            booklog_fast_gc_reaps: self
                .booklog_fast_gc_reaps
                .saturating_sub(earlier.booklog_fast_gc_reaps),
            booklog_slow_gc_runs: self
                .booklog_slow_gc_runs
                .saturating_sub(earlier.booklog_slow_gc_runs),
            booklog_slow_gc_copied: self
                .booklog_slow_gc_copied
                .saturating_sub(earlier.booklog_slow_gc_copied),
            booklog_alt_flips: self.booklog_alt_flips.saturating_sub(earlier.booklog_alt_flips),
            extent_best_fit: self.extent_best_fit.saturating_sub(earlier.extent_best_fit),
            extent_splits: self.extent_splits.saturating_sub(earlier.extent_splits),
            extent_coalesces: self.extent_coalesces.saturating_sub(earlier.extent_coalesces),
            decay_epochs: self.decay_epochs.saturating_sub(earlier.decay_epochs),
            pmsan_store_unfenced: self
                .pmsan_store_unfenced
                .saturating_sub(earlier.pmsan_store_unfenced),
            pmsan_empty_fence: self.pmsan_empty_fence.saturating_sub(earlier.pmsan_empty_fence),
            pmsan_redundant_flush: self
                .pmsan_redundant_flush
                .saturating_sub(earlier.pmsan_redundant_flush),
            pmsan_shutdown_dirty: self
                .pmsan_shutdown_dirty
                .saturating_sub(earlier.pmsan_shutdown_dirty),
            pmsan_violations: self.pmsan_violations.saturating_sub(earlier.pmsan_violations),
            prof_samples: self.prof_samples.saturating_sub(earlier.prof_samples),
            prof_appends: self.prof_appends.saturating_sub(earlier.prof_appends),
            prof_frees: self.prof_frees.saturating_sub(earlier.prof_frees),
            prof_compactions: self.prof_compactions.saturating_sub(earlier.prof_compactions),
            prof_dropped: self.prof_dropped.saturating_sub(earlier.prof_dropped),
            hists: self.hists.since(&earlier.hists),
        }
    }

    /// Elementwise saturating difference of per-shard counter vectors;
    /// entries missing from `earlier` are treated as zero (mirrors the
    /// per-class tcache convention).
    fn vec_since(now: &[u64], earlier: &[u64]) -> Vec<u64> {
        now.iter()
            .enumerate()
            .map(|(i, v)| v.saturating_sub(*earlier.get(i).unwrap_or(&0)))
            .collect()
    }

    /// The snapshot as one JSON object (no trailing newline). Per-class
    /// tcache counters are emitted only for classes with activity;
    /// histograms are emitted as 64-element bucket arrays per op kind.
    pub fn to_json(&self) -> String {
        let mut o = json::JsonObj::new();
        o.field_u64("schema_version", SCHEMA_VERSION);
        o.field_u64("tcache_hits", self.tcache_hits);
        o.field_u64("tcache_misses", self.tcache_misses);
        o.field_u64("tcache_refills", self.tcache_refills);
        o.field_u64("tcache_flushes", self.tcache_flushes);
        let classes: Vec<String> = self
            .tcache_by_class
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
        o.field_raw("tcache_by_class", &format!("[{}]", classes.join(",")));
        o.field_u64("cursor_rotations", self.cursor_rotations);
        o.field_u64("slab_allocs", self.slab_allocs);
        o.field_u64("slab_retires", self.slab_retires);
        o.field_u64("morph_candidates", self.morph_candidates);
        o.field_u64("morph_started", self.morph_started);
        o.field_u64("morph_completed", self.morph_completed);
        o.field_u64("morph_undone", self.morph_undone);
        o.field_u64("wal_appends", self.wal_appends);
        o.field_u64("wal_replays", self.wal_replays);
        o.field_u64("free_locks", self.free_locks);
        o.field_u64("free_fast_local", self.free_fast_local);
        o.field_u64("free_remote", self.free_remote);
        o.field_u64("remote_drain_batches", self.remote_drain_batches);
        o.field_u64("remote_drained", self.remote_drained);
        o.field_u64("remote_drain_foreign", self.remote_drain_foreign);
        o.field_u64("large_lock_acquires", self.large_lock_acquires);
        o.field_u64("large_lock_contended", self.large_lock_contended);
        o.field_raw("large_shard_acquires", &json::u64_array(&self.large_shard_acquires));
        o.field_raw("large_shard_contended", &json::u64_array(&self.large_shard_contended));
        o.field_u64("lock_wait_ns", self.lock_wait_ns);
        o.field_u64("lock_hold_ns", self.lock_hold_ns);
        o.field_u64("trace_events", self.trace_events);
        o.field_u64("trace_dropped", self.trace_dropped);
        o.field_u64("booklog_appends", self.booklog_appends);
        o.field_u64("booklog_tombstones", self.booklog_tombstones);
        o.field_u64("booklog_fast_gc_runs", self.booklog_fast_gc_runs);
        o.field_u64("booklog_fast_gc_reaps", self.booklog_fast_gc_reaps);
        o.field_u64("booklog_slow_gc_runs", self.booklog_slow_gc_runs);
        o.field_u64("booklog_slow_gc_copied", self.booklog_slow_gc_copied);
        o.field_u64("booklog_alt_flips", self.booklog_alt_flips);
        o.field_u64("pmsan_store_unfenced", self.pmsan_store_unfenced);
        o.field_u64("pmsan_empty_fence", self.pmsan_empty_fence);
        o.field_u64("pmsan_redundant_flush", self.pmsan_redundant_flush);
        o.field_u64("pmsan_shutdown_dirty", self.pmsan_shutdown_dirty);
        o.field_u64("pmsan_violations", self.pmsan_violations);
        o.field_u64("prof_samples", self.prof_samples);
        o.field_u64("prof_appends", self.prof_appends);
        o.field_u64("prof_frees", self.prof_frees);
        o.field_u64("prof_compactions", self.prof_compactions);
        o.field_u64("prof_dropped", self.prof_dropped);
        o.field_u64("extent_best_fit", self.extent_best_fit);
        o.field_u64("extent_splits", self.extent_splits);
        o.field_u64("extent_coalesces", self.extent_coalesces);
        o.field_u64("decay_epochs", self.decay_epochs);
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
        o.finish()
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
        let m = CoreMetrics::new(true);
        m.tcache_event(3, TcacheEvent::Hit);
        m.tcache_event(3, TcacheEvent::Hit);
        m.tcache_event(5, TcacheEvent::Miss);
        m.bump(Counter::WalAppends);
        m.add(Counter::SlabAllocs, 4);
        m.record_hist(OpKind::Free, 700);
        let s = m.snapshot();
        assert_eq!(s.tcache_hits, 2);
        assert_eq!(s.tcache_misses, 1);
        assert_eq!(s.tcache_by_class[3].hits, 2);
        assert_eq!(s.tcache_by_class[5].misses, 1);
        assert_eq!(s.wal_appends, 1);
        assert_eq!(s.slab_allocs, 4);
        assert_eq!(s.hists.of(OpKind::Free).count(), 1);

        let off = CoreMetrics::new(false);
        off.tcache_event(0, TcacheEvent::Hit);
        off.bump(Counter::WalAppends);
        off.record_hist(OpKind::Free, 1);
        let s = off.snapshot();
        assert_eq!(
            s,
            MetricsSnapshot { tcache_by_class: s.tcache_by_class.clone(), ..Default::default() }
        );
        assert_eq!(s.tcache_hits, 0);
    }

    #[test]
    fn snapshot_since_diffs() {
        let m = CoreMetrics::new(true);
        m.tcache_event(0, TcacheEvent::Hit);
        m.bump(Counter::WalAppends);
        let a = m.snapshot();
        m.tcache_event(0, TcacheEvent::Hit);
        m.tcache_event(1, TcacheEvent::Flush);
        m.bump(Counter::MorphStarted);
        m.record_hist(OpKind::MallocSmall, 300);
        let d = m.snapshot().since(&a);
        assert_eq!(d.tcache_hits, 1);
        assert_eq!(d.tcache_by_class[0].hits, 1);
        assert_eq!(d.tcache_flushes, 1);
        assert_eq!(d.wal_appends, 0);
        assert_eq!(d.morph_started, 1);
        assert_eq!(d.hists.of(OpKind::MallocSmall).count(), 1);
        // Mixed-instance diffs saturate instead of panicking.
        let other = CoreMetrics::new(true);
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
        let m = CoreMetrics::new(true);
        m.record_hist(OpKind::MallocSmall, 500);
        m.record_hist(OpKind::MallocSmall, 900);
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
        let m = CoreMetrics::new(true);
        m.tcache_event(2, TcacheEvent::Hit);
        let j = m.snapshot().to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"tcache_hits\":1"));
        assert!(j.contains("\"tcache_by_class\":[{\"class\":2,"));
        assert!(j.contains("\"hist\":{\"malloc_small\":["));
        // Quiet classes are omitted from the per-class list.
        assert!(!j.contains("\"class\":0,"));
    }
}
