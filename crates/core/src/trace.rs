//! The allocator's flight recorder: event vocabulary, per-thread ring
//! registration, chronological merging, and Chrome trace-event export.
//!
//! The transport (lock-free per-thread rings, global sequence stamping)
//! lives in [`nvalloc_pmem`] so that [`nvalloc_pmem::PmThread`] — which
//! every allocator module already threads through its persistence calls
//! — can carry the emitter. This module gives those raw events meaning:
//!
//! * [`EventKind`] — the allocator's one event vocabulary. Ring kinds
//!   (alloc/free begin+end, tcache refill/flush, cursor rotations, morph
//!   step transitions, WAL append/commit, booklog append/GC, remote-queue
//!   push/drain, lock acquisitions with wait/hold nanoseconds, recovery
//!   phases) reach the flight recorder; count-only kinds are tallied by
//!   the per-thread [`crate::telemetry::Probe`] and never reach a ring;
//! * [`TraceRecorder`] — owns one ring per registered allocator thread
//!   (capacity `NvConfig::trace_events_per_thread`, drop-oldest on
//!   wrap) plus the shared sequence counter;
//! * [`TraceRecorder::merged`] — the rings merged into one stream,
//!   totally ordered by the global sequence number;
//! * [`TraceRecorder::chrome_json`] — the merged stream as a Chrome
//!   `chrome://tracing` / Perfetto JSON document (`--trace <path>` on
//!   every fig binary writes this).
//!
//! Memory bound: a recorder never holds more than
//! `threads × trace_events_per_thread` events of 40 bytes each; older
//! events are overwritten in place and surface only in the
//! `trace_dropped` counter.
//!
//! Tracing is strictly observational: events are stamped from the
//! virtual clock but recording never advances it, so a traced run's
//! modelled measurements equal an untraced run's (asserted by
//! `tests/trace.rs`).

use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use nvalloc_pmem::{TraceEvent, TraceRing, TracerHandle};
use parking_lot::Mutex;

use crate::telemetry::json;

/// Every counted or traced allocator event; the `u16` discriminant is its
/// code, payload words `a`/`b` are documented per variant. Codes up to
/// [`EventKind::PmsanViolation`] reach the ring; higher ones are count-only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum EventKind {
    /// `malloc` entered. `a` = requested size.
    MallocBegin = 1,
    /// `malloc` returned. `a` = block address (0 on failure).
    MallocEnd = 2,
    /// `free` entered. `a` = block address.
    FreeBegin = 3,
    /// `free` returned. `a` = block address.
    FreeEnd = 4,
    /// Tcache refill for a class. `a` = class, `b` = blocks gained.
    TcacheRefill = 5,
    /// Tcache flush back to slabs. `a` = class, `b` = blocks flushed.
    TcacheFlush = 6,
    /// Sub-tcache cursor rotation. `a` = class.
    CursorRotate = 7,
    /// Slab-morph step transition. `a` = persistent `flag` value just
    /// written (0 none / 1 old-saved / 2 index-written / 3 new-written),
    /// `b` = slab base address.
    MorphStep = 8,
    /// Micro-WAL entry appended. `a` = block address, `b` = sequence.
    WalAppend = 9,
    /// WAL entry committed (dest write persisted). `a` = block address,
    /// `b` = destination address.
    WalCommit = 10,
    /// Bookkeeping-log entry appended. `a` = extent address, `b` = size.
    BooklogAppend = 11,
    /// Bookkeeping-log GC pass. `a` = 0 fast / 1 slow, `b` = chunks
    /// reaped (fast) or live entries copied (slow).
    BooklogGc = 12,
    /// Cross-arena free pushed onto a remote queue. `a` = block address,
    /// `b` = owning arena.
    RemotePush = 13,
    /// Remote-free queue drained. `a` = arena, `b` = blocks returned.
    RemoteDrain = 14,
    /// Instrumented mutex acquisition. `a` = wall-clock nanoseconds
    /// waited, `b` = wall-clock nanoseconds held.
    LockAcquire = 15,
    /// Recovery phase transition. `a` = phase ordinal (0 start /
    /// 1 slabs-scanned / 2 wal-replayed / 3 gc-complete / 4 done),
    /// `b` = phase-specific count.
    RecoveryPhase = 16,
    /// pmsan persist-ordering violation (emitted by the pmem substrate;
    /// code must equal `nvalloc_pmem::PMSAN_TRACE_CODE`). `a` = 64 B
    /// line offset, `b` = violation-kind ordinal
    /// (`nvalloc_pmem::PmsanKind` index).
    PmsanViolation = 17,
    /// `malloc` served straight from the tcache. `a` = class.
    TcacheHit = 18,
    /// `malloc` found the tcache empty (a refill follows). `a` = class.
    TcacheMiss = 19,
    /// A refill attempt (freelist, morph, or new slab). `a` = class.
    TcacheRefillAttempt = 20,
    /// A freed block bypassed the full tcache back to its slab.
    /// `a` = class.
    TcacheOverflow = 21,
    /// Slab frame carved from the large allocator.
    SlabCarve = 22,
    /// Fully-free slab returned to the large allocator.
    SlabRetire = 23,
    /// Morph-candidate scan of the LRU list. `a` = slabs examined.
    MorphScan = 24,
    /// Morph transform started.
    MorphStart = 25,
    /// Morph transform completed.
    MorphDone = 26,
    /// Interrupted morphs rolled back or forward by recovery. `a` = count.
    MorphUndone = 27,
    /// WAL entries replayed by recovery. `a` = count.
    WalReplay = 28,
    /// Free that took the arena or large-shard mutex (slow frees only).
    FreeLocked = 29,
    /// Same-thread free completed on the lock-free fast path.
    FreeFastLocal = 30,
    /// Non-empty drain of a foreign arena's remote-free queue by a malloc
    /// slow path (or by `quiesce` for an arena with no threads left).
    RemoteDrainForeign = 31,
}

impl EventKind {
    /// Every kind, in code order.
    pub const ALL: [EventKind; 31] = [
        EventKind::MallocBegin,
        EventKind::MallocEnd,
        EventKind::FreeBegin,
        EventKind::FreeEnd,
        EventKind::TcacheRefill,
        EventKind::TcacheFlush,
        EventKind::CursorRotate,
        EventKind::MorphStep,
        EventKind::WalAppend,
        EventKind::WalCommit,
        EventKind::BooklogAppend,
        EventKind::BooklogGc,
        EventKind::RemotePush,
        EventKind::RemoteDrain,
        EventKind::LockAcquire,
        EventKind::RecoveryPhase,
        EventKind::PmsanViolation,
        EventKind::TcacheHit,
        EventKind::TcacheMiss,
        EventKind::TcacheRefillAttempt,
        EventKind::TcacheOverflow,
        EventKind::SlabCarve,
        EventKind::SlabRetire,
        EventKind::MorphScan,
        EventKind::MorphStart,
        EventKind::MorphDone,
        EventKind::MorphUndone,
        EventKind::WalReplay,
        EventKind::FreeLocked,
        EventKind::FreeFastLocal,
        EventKind::RemoteDrainForeign,
    ];

    /// Whether the flight recorder stores this kind (else count-only).
    #[inline]
    pub fn on_ring(self) -> bool {
        self.code() <= EventKind::PmsanViolation.code()
    }

    /// The on-ring event code.
    #[inline]
    pub fn code(self) -> u16 {
        self as u16
    }

    /// Decode an on-ring code.
    pub fn from_code(code: u16) -> Option<EventKind> {
        Self::ALL.get(code.wrapping_sub(1) as usize).copied()
    }

    /// Human-readable name (Chrome trace `name`).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::MallocBegin | EventKind::MallocEnd => "malloc",
            EventKind::FreeBegin | EventKind::FreeEnd => "free",
            EventKind::TcacheRefill => "tcache_refill",
            EventKind::TcacheFlush => "tcache_flush",
            EventKind::CursorRotate => "cursor_rotate",
            EventKind::MorphStep => "morph_step",
            EventKind::WalAppend => "wal_append",
            EventKind::WalCommit => "wal_commit",
            EventKind::BooklogAppend => "booklog_append",
            EventKind::BooklogGc => "booklog_gc",
            EventKind::RemotePush => "remote_push",
            EventKind::RemoteDrain => "remote_drain",
            EventKind::LockAcquire => "lock",
            EventKind::RecoveryPhase => "recovery",
            EventKind::PmsanViolation => "pmsan_violation",
            // Count-only kinds never reach a ring, so no trace names them.
            _ => "count",
        }
    }

    /// Chrome trace category.
    pub fn category(self) -> &'static str {
        match self {
            EventKind::MallocBegin
            | EventKind::MallocEnd
            | EventKind::FreeBegin
            | EventKind::FreeEnd => "op",
            EventKind::TcacheRefill | EventKind::TcacheFlush | EventKind::CursorRotate => "tcache",
            EventKind::MorphStep => "morph",
            EventKind::WalAppend | EventKind::WalCommit => "wal",
            EventKind::BooklogAppend | EventKind::BooklogGc => "booklog",
            EventKind::RemotePush | EventKind::RemoteDrain => "remote",
            EventKind::LockAcquire => "lock",
            EventKind::RecoveryPhase => "recovery",
            EventKind::PmsanViolation => "pmsan",
            _ => "count",
        }
    }
}

/// The allocator-wide flight recorder: one drop-oldest ring per
/// registered thread plus the shared sequence counter that gives the
/// merged stream its total order. Created by the allocator front end
/// when `NvConfig::trace` is on; one [`TracerHandle`] is attached to
/// each `NvThread`'s `PmThread` at registration.
#[derive(Debug)]
pub struct TraceRecorder {
    events_per_thread: usize,
    seq: Arc<AtomicU64>,
    rings: Mutex<Vec<Arc<TraceRing>>>,
}

impl TraceRecorder {
    /// Create a recorder whose per-thread rings hold `events_per_thread`
    /// events each.
    pub fn new(events_per_thread: usize) -> TraceRecorder {
        TraceRecorder {
            events_per_thread: events_per_thread.max(1),
            seq: Arc::new(AtomicU64::new(0)),
            rings: Mutex::new(Vec::new()),
        }
    }

    /// Register a new producer thread: allocates its ring and returns
    /// the emitter handle to attach to its `PmThread`.
    pub fn register(&self) -> TracerHandle {
        let ring = Arc::new(TraceRing::new(self.events_per_thread));
        let mut rings = self.rings.lock();
        let tid = rings.len().min(u16::MAX as usize) as u16;
        rings.push(Arc::clone(&ring));
        TracerHandle::new(ring, Arc::clone(&self.seq), tid)
    }

    /// Total events currently resident across all rings.
    pub fn events(&self) -> u64 {
        self.rings.lock().iter().map(|r| r.len()).sum()
    }

    /// Total events lost to drop-oldest wraparound across all rings.
    pub fn dropped(&self) -> u64 {
        self.rings.lock().iter().map(|r| r.dropped()).sum()
    }

    /// All resident events merged into one stream, totally ordered by
    /// the global sequence number. Authoritative at quiescence (no
    /// concurrent producers); see the transport docs.
    pub fn merged(&self) -> Vec<TraceEvent> {
        let rings = self.rings.lock();
        let mut out: Vec<TraceEvent> =
            Vec::with_capacity(rings.iter().map(|r| r.len()).sum::<u64>() as usize);
        for r in rings.iter() {
            out.extend(r.snapshot());
        }
        drop(rings);
        out.sort_unstable_by_key(|e| e.seq);
        out
    }

    /// The merged stream as a Chrome trace-event JSON document
    /// (`{"traceEvents":[...]}`), loadable in `chrome://tracing` or
    /// Perfetto. Begin/end kinds map to `B`/`E` duration events, lock
    /// acquisitions to `X` complete events (duration = hold time, wait
    /// time in `args`), everything else to `i` instants. Timestamps are
    /// the emitting thread's virtual-clock microseconds.
    pub fn chrome_json(&self) -> String {
        self.chrome_json_with(&[])
    }

    /// [`TraceRecorder::chrome_json`] with extra pre-rendered trace-event
    /// objects appended to the `traceEvents` array — how the timeline
    /// sampler's counter tracks ([`crate::observe`]) merge into the same
    /// document as the flight-recorder event stream.
    pub fn chrome_json_with(&self, extras: &[String]) -> String {
        let mut events = Vec::new();
        for e in self.merged() {
            let Some(kind) = EventKind::from_code(e.code) else { continue };
            let mut o = json::JsonObj::new();
            o.field_str("name", kind.name());
            o.field_str("cat", kind.category());
            let ph = match kind {
                EventKind::MallocBegin | EventKind::FreeBegin => "B",
                EventKind::MallocEnd | EventKind::FreeEnd => "E",
                EventKind::LockAcquire => "X",
                _ => "i",
            };
            o.field_str("ph", ph);
            o.field_f64("ts", e.ns as f64 / 1000.0);
            o.field_u64("pid", 1);
            o.field_u64("tid", e.tid as u64);
            if ph == "i" {
                o.field_str("s", "t");
            }
            if kind == EventKind::LockAcquire {
                o.field_f64("dur", e.b as f64 / 1000.0);
            }
            let mut args = json::JsonObj::new();
            args.field_u64("seq", e.seq);
            match kind {
                EventKind::LockAcquire => {
                    args.field_u64("wait_ns", e.a);
                    args.field_u64("hold_ns", e.b);
                }
                _ => {
                    args.field_u64("a", e.a);
                    args.field_u64("b", e.b);
                }
            }
            o.field_raw("args", &args.finish());
            events.push(o.finish());
        }
        events.extend(extras.iter().cloned());
        let mut doc = json::JsonObj::new();
        doc.field_raw("traceEvents", &format!("[{}]", events.join(",")));
        doc.field_str("displayTimeUnit", "ns");
        doc.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_round_trip() {
        for k in EventKind::ALL {
            assert_eq!(EventKind::from_code(k.code()), Some(k));
        }
        let ring = EventKind::ALL.iter().filter(|k| k.on_ring()).count();
        assert_eq!(ring, 17, "the ring vocabulary is fixed");
        assert_eq!(EventKind::from_code(0), None);
        assert_eq!(EventKind::from_code(999), None);
    }

    #[test]
    fn merged_is_seq_ordered_across_rings() {
        let rec = TraceRecorder::new(16);
        let h1 = rec.register();
        let h2 = rec.register();
        h1.emit(10, EventKind::MallocBegin.code(), 64, 0);
        h2.emit(5, EventKind::FreeBegin.code(), 4096, 0);
        h1.emit(20, EventKind::MallocEnd.code(), 4096, 0);
        let m = rec.merged();
        assert_eq!(m.len(), 3);
        assert!(m.windows(2).all(|w| w[0].seq < w[1].seq));
        assert_eq!(rec.events(), 3);
        assert_eq!(rec.dropped(), 0);
    }

    #[test]
    fn chrome_json_has_expected_shape() {
        let rec = TraceRecorder::new(8);
        let h = rec.register();
        h.emit(1000, EventKind::MallocBegin.code(), 64, 0);
        h.emit(2000, EventKind::MallocEnd.code(), 4096, 0);
        h.emit(2500, EventKind::LockAcquire.code(), 111, 222);
        let j = rec.chrome_json();
        assert!(j.starts_with("{\"traceEvents\":["));
        assert!(j.contains("\"ph\":\"B\""));
        assert!(j.contains("\"ph\":\"E\""));
        assert!(j.contains("\"ph\":\"X\""));
        assert!(j.contains("\"wait_ns\":111"));
        assert!(j.contains("\"hold_ns\":222"));
    }
}
