//! Event counters and the flush-address trace.
//!
//! Everything the paper's motivation and evaluation sections *measure* about
//! PM traffic is collected here: flush / reflush counts (Fig. 1a), the
//! sequential-vs-random classification (§3.3), per-category flush time for
//! the Fig. 11 breakdowns, and a bounded trace of flush addresses that
//! regenerates the Fig. 2 scatter plots.
//!
//! Each thread counts its flushes and fences in a cache-line-aligned
//! block picked by its id ([`Counters`]), so threads with nearby ids
//! move no counter line between cores. The flush counts are written
//! inside the latency model's critical section ([`crate::LatencyModel`]),
//! where the line is classified and traced, and [`PmemStats`] sums the
//! blocks under that same lock, so a snapshot is one consistent cut of
//! the flush counters. Fences take no lock and are read alongside.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::layout::CACHE_LINE;
use crate::model::LatencyModel;

/// What kind of state a flush persists. Used to attribute flush time in the
/// Fig. 11 execution-time breakdown and to separate *allocator-induced*
/// traffic (everything except [`FlushKind::Data`]) from application traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlushKind {
    /// Slab headers, bitmaps, extent headers — heap metadata proper.
    Meta,
    /// Write-ahead-log entries.
    Wal,
    /// Persistent bookkeeping-log entries (NVAlloc §5.3).
    BookLog,
    /// Application data (payload writes by the benchmark itself).
    Data,
}

impl FlushKind {
    /// All kinds, in a stable order (indexing into per-kind counters).
    pub const ALL: [FlushKind; 4] =
        [FlushKind::Meta, FlushKind::Wal, FlushKind::BookLog, FlushKind::Data];

    #[inline]
    pub(crate) fn index(self) -> usize {
        match self {
            FlushKind::Meta => 0,
            FlushKind::Wal => 1,
            FlushKind::BookLog => 2,
            FlushKind::Data => 3,
        }
    }

    /// Short label used by the benchmark reporters.
    pub fn label(self) -> &'static str {
        match self {
            FlushKind::Meta => "meta",
            FlushKind::Wal => "wal",
            FlushKind::BookLog => "booklog",
            FlushKind::Data => "data",
        }
    }
}

/// One recorded flush, kept in the bounded trace for Fig. 2 reproduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlushRecord {
    /// Global flush sequence number at the time of the flush.
    pub seq: u64,
    /// Byte offset of the flushed line inside the pool.
    pub addr: u64,
    /// Attribution of the flush.
    pub kind: FlushKind,
}

const KINDS: usize = 4;

/// The event counters of one [`crate::PmemPool`], from
/// [`crate::PmemPool::stats`].
///
/// All counters are monotone; read a consistent view with
/// [`PmemStats::snapshot`] or reset between benchmark phases with
/// [`PmemStats::reset`].
#[derive(Clone, Copy)]
pub struct PmemStats<'a>(pub(crate) &'a LatencyModel);

impl std::fmt::Debug for PmemStats<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("PmemStats").field(&self.snapshot()).finish()
    }
}

impl PmemStats<'_> {
    /// Total number of flush operations.
    pub fn flushes(&self) -> u64 {
        self.snapshot().flushes
    }

    /// Number of flushes classified as *reflushes* (same cache line flushed
    /// again at reflush distance < 4 — §3.1 of the paper).
    pub fn reflushes(&self) -> u64 {
        self.snapshot().reflushes
    }

    /// Number of fences.
    pub fn fences(&self) -> u64 {
        self.snapshot().fences
    }

    /// Enable the flush-address trace (records the next
    /// `trace_capacity` flushes).
    pub fn enable_trace(&self) {
        self.0.lock_core().trace.get_or_insert_with(Vec::new);
    }

    /// Disable and clear the flush-address trace.
    pub fn disable_trace(&self) {
        self.0.lock_core().trace = None;
    }

    /// A copy of the recorded flush trace.
    pub fn trace(&self) -> Vec<FlushRecord> {
        self.0.lock_core().trace.clone().unwrap_or_default()
    }

    /// Zero all counters and the trace. Virtual clocks of registered threads
    /// are *not* affected. The counts from here on are told from the
    /// totals recorded now, so no thread's block is written.
    pub fn reset(&self) {
        let mut core = self.0.lock_core();
        core.zero = self.0.counters.total();
        if let Some(trace) = &mut core.trace {
            trace.clear();
        }
    }

    /// A point-in-time copy of every counter. The flush counters are one
    /// consistent cut; `fences` is read alongside.
    pub fn snapshot(&self) -> StatsSnapshot {
        let core = self.0.lock_core();
        self.0.counters.total().since(&core.zero)
    }
}

/// Single-writer add: a relaxed load and store, never a
/// read-modify-write. Only one thread at a time may write `c`.
#[inline]
fn add_single_writer(c: &AtomicU64, n: u64) {
    c.store(c.load(Ordering::Relaxed) + n, Ordering::Relaxed);
}

/// The flush and fence counts of the threads whose id picks this block:
/// cache-line-aligned, so counting moves no line between threads that
/// pick different blocks. The other [`StatsSnapshot`] fields follow from
/// these: every line flushed is 64 bytes, and random or sequential.
#[derive(Debug)]
#[repr(align(64))]
struct CounterBlock {
    /// Flushes, reflushes and modelled ns, indexed in [`FlushKind::ALL`]
    /// order.
    flushes: [AtomicU64; KINDS],
    reflushes: [AtomicU64; KINDS],
    ns: [AtomicU64; KINDS],
    seq_writes: AtomicU64,
    xpbuf_misses: AtomicU64,
    fences: AtomicU64,
}

impl CounterBlock {
    fn new() -> Self {
        CounterBlock {
            flushes: [const { AtomicU64::new(0) }; KINDS],
            reflushes: [const { AtomicU64::new(0) }; KINDS],
            ns: [const { AtomicU64::new(0) }; KINDS],
            seq_writes: AtomicU64::new(0),
            xpbuf_misses: AtomicU64::new(0),
            fences: AtomicU64::new(0),
        }
    }

    /// Count one flushed line of `kind` charged `ns`. Only the model
    /// lock's holder writes the flush counts, so they have one writer at
    /// a time.
    #[inline]
    fn record_line(
        &self,
        kind: FlushKind,
        is_reflush: bool,
        is_sequential: bool,
        xpbuf_miss: bool,
        ns: u64,
    ) {
        let k = kind.index();
        add_single_writer(&self.flushes[k], 1);
        add_single_writer(&self.ns[k], ns);
        if is_reflush {
            add_single_writer(&self.reflushes[k], 1);
        }
        if is_sequential {
            add_single_writer(&self.seq_writes, 1);
        }
        if xpbuf_miss {
            add_single_writer(&self.xpbuf_misses, 1);
        }
    }

    /// Count one fence. Fences take no lock and two threads may share a
    /// block, so this one is a read-modify-write.
    #[inline]
    fn record_fence(&self) {
        self.fences.fetch_add(1, Ordering::Relaxed);
    }

    /// Add this block's counts to `s`.
    fn add_into(&self, s: &mut StatsSnapshot) {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let mut flushes = 0;
        for k in 0..KINDS {
            let f = load(&self.flushes[k]);
            let r = load(&self.reflushes[k]);
            flushes += f;
            s.kind_flushes[k] += f;
            s.kind_reflushes[k] += r;
            s.kind_ns[k] += load(&self.ns[k]);
            s.reflushes += r;
        }
        let seq = load(&self.seq_writes);
        s.flushes += flushes;
        s.seq_writes += seq;
        s.rand_writes += flushes - seq;
        s.bytes_flushed += CACHE_LINE as u64 * flushes;
        s.xpbuf_misses += load(&self.xpbuf_misses);
        s.fences += load(&self.fences);
    }
}

/// Counter blocks per model. Thread `id` counts in block `id % BLOCKS`,
/// so up to this many threads with consecutive ids count on lines of
/// their own; beyond that, threads share a block, which stays exact and
/// only shares its lines.
const BLOCKS: usize = 16;

/// All flush and fence counts of one model. A thread picks its block by
/// its id, so counting needs no registration, no allocation and no
/// cleanup when a thread drops: a dropped thread's counts stay in its
/// block.
#[derive(Debug)]
pub(crate) struct Counters([CounterBlock; BLOCKS]);

impl Counters {
    pub(crate) fn new() -> Self {
        Counters(std::array::from_fn(|_| CounterBlock::new()))
    }

    /// Count one flushed line of `kind` charged `ns` for `thread`; call it
    /// while holding the model lock.
    #[inline]
    pub(crate) fn record_line(
        &self,
        thread: usize,
        kind: FlushKind,
        is_reflush: bool,
        is_sequential: bool,
        xpbuf_miss: bool,
        ns: u64,
    ) {
        self.0[thread % BLOCKS].record_line(kind, is_reflush, is_sequential, xpbuf_miss, ns);
    }

    /// Count one fence for `thread`; takes no lock.
    #[inline]
    pub(crate) fn record_fence(&self, thread: usize) {
        self.0[thread % BLOCKS].record_fence();
    }

    /// Every count since the model was built. Under the model lock the
    /// flush counts are one consistent cut.
    pub(crate) fn total(&self) -> StatsSnapshot {
        let mut s = StatsSnapshot::default();
        for b in &self.0 {
            b.add_into(&mut s);
        }
        s
    }
}

/// A point-in-time copy of [`PmemStats`], cheap to diff between phases.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Total flush operations.
    pub flushes: u64,
    /// Flushes classified as reflushes (distance < 4).
    pub reflushes: u64,
    /// Fence operations.
    pub fences: u64,
    /// Flushes classified as sequential.
    pub seq_writes: u64,
    /// Flushes classified as random.
    pub rand_writes: u64,
    /// Total bytes flushed.
    pub bytes_flushed: u64,
    /// Flushes that missed the modelled XPBuffer.
    pub xpbuf_misses: u64,
    /// Flush counts indexed in [`FlushKind::ALL`] order.
    pub kind_flushes: [u64; 4],
    /// Reflush counts indexed in [`FlushKind::ALL`] order.
    pub kind_reflushes: [u64; 4],
    /// Modelled nanoseconds indexed in [`FlushKind::ALL`] order.
    pub kind_ns: [u64; 4],
}

impl StatsSnapshot {
    /// Counter-wise difference `self - earlier` (for phase measurements).
    ///
    /// Each field is computed with saturating subtraction: if `earlier` was
    /// taken after `self` (or after a pool reset zeroed the live counters),
    /// the affected fields clamp to zero instead of panicking on underflow.
    pub fn since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        let mut kind_flushes = [0u64; KINDS];
        let mut kind_reflushes = [0u64; KINDS];
        let mut kind_ns = [0u64; KINDS];
        for i in 0..KINDS {
            kind_flushes[i] = self.kind_flushes[i].saturating_sub(earlier.kind_flushes[i]);
            kind_reflushes[i] = self.kind_reflushes[i].saturating_sub(earlier.kind_reflushes[i]);
            kind_ns[i] = self.kind_ns[i].saturating_sub(earlier.kind_ns[i]);
        }
        StatsSnapshot {
            flushes: self.flushes.saturating_sub(earlier.flushes),
            reflushes: self.reflushes.saturating_sub(earlier.reflushes),
            fences: self.fences.saturating_sub(earlier.fences),
            seq_writes: self.seq_writes.saturating_sub(earlier.seq_writes),
            rand_writes: self.rand_writes.saturating_sub(earlier.rand_writes),
            bytes_flushed: self.bytes_flushed.saturating_sub(earlier.bytes_flushed),
            xpbuf_misses: self.xpbuf_misses.saturating_sub(earlier.xpbuf_misses),
            kind_flushes,
            kind_reflushes,
            kind_ns,
        }
    }

    /// Flush count for one attribution kind.
    pub fn flushes_of(&self, kind: FlushKind) -> u64 {
        self.kind_flushes[kind.index()]
    }

    /// Modelled flush nanoseconds for one attribution kind.
    pub fn ns_of(&self, kind: FlushKind) -> u64 {
        self.kind_ns[kind.index()]
    }

    /// Allocator-induced flushes: everything except [`FlushKind::Data`].
    pub fn allocator_flushes(&self) -> u64 {
        [FlushKind::Meta, FlushKind::Wal, FlushKind::BookLog]
            .iter()
            .map(|k| self.flushes_of(*k))
            .sum()
    }

    /// Reflush count for one attribution kind.
    pub fn reflushes_of(&self, kind: FlushKind) -> u64 {
        self.kind_reflushes[kind.index()]
    }

    /// Fraction of flushes that were reflushes, in percent.
    pub fn reflush_pct(&self) -> f64 {
        if self.flushes == 0 {
            0.0
        } else {
            100.0 * self.reflushes as f64 / self.flushes as f64
        }
    }

    /// Reflush share of *allocator-induced* flushes (Meta + WAL +
    /// bookkeeping log; application `Data` traffic excluded) — the §3.1
    /// metric of Fig. 1(a).
    pub fn allocator_reflush_pct(&self) -> f64 {
        let kinds = [FlushKind::Meta, FlushKind::Wal, FlushKind::BookLog];
        let flushes: u64 = kinds.iter().map(|k| self.flushes_of(*k)).sum();
        let reflushes: u64 = kinds.iter().map(|k| self.reflushes_of(*k)).sum();
        if flushes == 0 {
            0.0
        } else {
            100.0 * reflushes as f64 / flushes as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelParams;
    use crate::thread::PmThread;
    use crate::{LatencyMode, PmemMode};

    fn snapshot(b: &CounterBlock) -> StatsSnapshot {
        let mut s = StatsSnapshot::default();
        b.add_into(&mut s);
        s
    }

    #[test]
    fn snapshot_diff() {
        let b = CounterBlock::new();
        b.record_line(FlushKind::Meta, false, true, false, 100);
        let a = snapshot(&b);
        b.record_line(FlushKind::Wal, true, false, true, 700);
        let d = snapshot(&b).since(&a);
        assert_eq!(d.flushes, 1);
        assert_eq!(d.reflushes, 1);
        assert_eq!(d.rand_writes, 1);
        assert_eq!(d.xpbuf_misses, 1);
        assert_eq!(d.bytes_flushed, 64);
        assert_eq!(d.flushes_of(FlushKind::Wal), 1);
        assert_eq!(d.ns_of(FlushKind::Wal), 700);
        assert_eq!(d.flushes_of(FlushKind::Meta), 0);
    }

    #[test]
    fn snapshot_diff_saturates_on_reversed_order() {
        let b = CounterBlock::new();
        b.record_line(FlushKind::Meta, false, true, false, 100);
        let later = snapshot(&b);
        b.record_line(FlushKind::Wal, true, false, true, 700);
        // Diffing the wrong way round clamps to zero rather than underflowing.
        let d = later.since(&snapshot(&b));
        assert_eq!(d, StatsSnapshot::default());
    }

    #[test]
    fn trace_bounded_and_gated() {
        let m = LatencyModel::new(ModelParams::default(), LatencyMode::Off, PmemMode::Adr, 2);
        let s = PmemStats(&m);
        let mut t = PmThread::new(0);
        // Disabled: nothing recorded.
        m.flush_line(&mut t, 0, FlushKind::Data);
        assert!(s.trace().is_empty());
        s.enable_trace();
        for i in 0..5 {
            m.flush_line(&mut t, i * 64, FlushKind::Data);
        }
        assert_eq!(s.trace().len(), 2);
        s.disable_trace();
        assert!(s.trace().is_empty());
    }

    #[test]
    fn threads_sharing_a_block_count_exactly() {
        // Ids 0 and BLOCKS pick the same block: flushes still count under
        // the lock, fences with a read-modify-write.
        let m = LatencyModel::new(ModelParams::default(), LatencyMode::Off, PmemMode::Adr, 0);
        std::thread::scope(|s| {
            for id in [0, BLOCKS] {
                let m = &m;
                s.spawn(move || {
                    let mut t = PmThread::new(id);
                    for i in 0..10_000 {
                        m.flush_line(&mut t, i * 64, FlushKind::Meta);
                        m.fence(&mut t);
                    }
                });
            }
        });
        let s = PmemStats(&m).snapshot();
        assert_eq!((s.flushes, s.fences, s.flushes_of(FlushKind::Meta)), (20_000, 20_000, 20_000));
    }

    #[test]
    fn reflush_pct() {
        let b = CounterBlock::new();
        for i in 0..4 {
            b.record_line(FlushKind::Meta, i % 2 == 0, true, false, 0);
        }
        assert_eq!(snapshot(&b).reflush_pct(), 50.0);
    }
}
