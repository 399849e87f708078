//! The latency model: reflush detection, sequential/random classification,
//! and the XPBuffer / write-combining working-set models.
//!
//! All constants are taken from the paper or the measurement studies it
//! cites (Yang et al., FAST'20; Chen et al., ASPLOS'20 "FlatStore"):
//!
//! * reflush at distance 0..=3 costs 800/700/600/500 ns (§3.1: "the latency
//!   of cache line reflushes is decreased from 800 ns to 500 ns when reflush
//!   distance is increased from 0 to 3");
//! * a regular random flush costs ~250 ns and a sequential flush ~110 ns
//!   (§3.1: reflush latency is "3x and 7x higher than random and sequential
//!   writes");
//! * Optane's internal write-combining buffer (XPBuffer) holds a small
//!   working set of 256 B XPLines; flushes that fall outside it pay an extra
//!   media write-amplification penalty — the effect that makes *too many*
//!   bit stripes slow (Fig. 16a).
//!
//! The model is shared by every thread of a pool, behind one lock taken
//! once per flushed line. Besides the flushing thread's own counter
//! block, picked by its id (`stats.rs`), the critical section writes only
//! what the §3.1 model shares: the lock word, the global flush `seq` and
//! the XPBuffer (`seq` and the buffer's header on one padded line, its
//! keys in one small array) and the line's entries in the two hashed
//! tables. `params`, `mode` and the table headers sit on lines nothing
//! writes after creation, and latency is charged after the lock is
//! released, so nothing inside the section charges or sleeps and a
//! waiter spins briefly instead of parking. Counting allocates nothing
//! and registering a thread takes no lock: the shim's `GlobalAlloc`
//! flushes through this lock, so an allocation under it would re-enter
//! it. Only the Fig. 2 flush trace grows under the lock; leave it off on
//! a pool that backs the global allocator.

use parking_lot::{Mutex, MutexGuard};

use crate::layout::{line_of, xpline_of};
use crate::stats::{Counters, FlushKind, FlushRecord, StatsSnapshot};
use crate::thread::PmThread;
use crate::{LatencyMode, PmemMode};

/// Tunable constants of the latency model. The defaults reproduce the
/// paper's numbers; tests and sensitivity benches may override them.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelParams {
    /// Cost in ns of a reflush at distance `d` (index 0..=3).
    pub reflush_ns: [u64; 4],
    /// Reflush distance threshold: a flush of a line last flushed fewer than
    /// this many flushes ago counts as a reflush.
    pub reflush_window: u64,
    /// Cost in ns of a regular flush classified as random.
    pub random_flush_ns: u64,
    /// Cost in ns of a regular flush classified as sequential.
    pub seq_flush_ns: u64,
    /// Extra ns charged when the flushed XPLine suffers a *capacity* miss:
    /// it was flushed recently (within `xpbuf_history`) but has already
    /// been evicted from the XPBuffer — the write-combining opportunity was
    /// lost and the 256 B line is written to media again. Cold first-touch
    /// misses carry no extra charge (their media write is part of the base
    /// flush cost).
    pub xpbuf_miss_ns: u64,
    /// Number of 256 B XPLines the XPBuffer holds. The hardware buffer is
    /// 16 KB per DIMM but is shared by every concurrent access stream
    /// (prefetches, reads, neighbouring threads); the default models the
    /// effective share available to one allocation stream.
    pub xpbuf_lines: usize,
    /// Window (in line-flushes) within which a re-flushed-but-evicted
    /// XPLine counts as a capacity miss.
    pub xpbuf_history: u64,
    /// Cost in ns of a fence.
    pub fence_ns: u64,
    /// Distance (bytes) within which a flush after the previous one from the
    /// same thread still counts as sequential.
    pub seq_threshold: u64,
    /// eADR: ns charged when a *store* misses the write-combining buffer.
    pub eadr_store_miss_ns: u64,
    /// eADR: number of cache lines the write-combining buffer holds.
    pub eadr_wc_lines: usize,
}

impl Default for ModelParams {
    fn default() -> Self {
        ModelParams {
            reflush_ns: [800, 700, 600, 500],
            reflush_window: 4,
            random_flush_ns: 250,
            seq_flush_ns: 110,
            xpbuf_miss_ns: 100,
            xpbuf_lines: 8,
            xpbuf_history: 128,
            fence_ns: 30,
            seq_threshold: 4096,
            eadr_store_miss_ns: 90,
            eadr_wc_lines: 256,
        }
    }
}

/// Direct-mapped cache of `line -> last flush sequence number` used for
/// reflush-distance detection. Collisions evict, which can only *miss* a
/// reflush (conservative), never invent one.
///
/// Every flushed line reads this header and none writes it, so it sits
/// on a cache line of its own that stays shared between cores.
#[derive(Debug)]
#[repr(align(64))]
struct ReflushCache {
    /// `(tag, seq)` side by side, so a lookup reads one cache line; the
    /// tag is the line index + 1, 0 = empty. Built with `vec!` of zeros,
    /// which the allocator hands out already zeroed (no memset per pool).
    entries: Vec<(u64, u64)>,
    mask: usize,
}

impl ReflushCache {
    fn new(entries: usize) -> Self {
        let entries = entries.next_power_of_two();
        ReflushCache { entries: vec![(0u64, 0u64); entries], mask: entries - 1 }
    }

    /// Record a flush of `line` at `seq`; returns the previous sequence
    /// number for the same line, if it is still cached.
    fn touch(&mut self, line: u64, seq: u64) -> Option<u64> {
        let idx = (line as usize).wrapping_mul(0x9E37_79B9_7F4A_7C15_usize) >> 13 & self.mask;
        let tag = line + 1;
        let e = &mut self.entries[idx];
        let prev = (e.0 == tag).then_some(e.1);
        *e = (tag, seq);
        prev
    }
}

/// A hardware buffer of `capacity` entries with exact LRU replacement:
/// its keys in recency order, most recent first, so no use stamps.
/// Linear scan — capacities are small (≤ 256).
#[derive(Debug)]
struct MruKeys {
    keys: Vec<u64>,
    capacity: usize,
}

impl MruKeys {
    fn new(capacity: usize) -> Self {
        MruKeys { keys: Vec::with_capacity(capacity), capacity }
    }

    /// Touch `key`, moving it to the front; returns `true` on hit, `false`
    /// on miss (inserting it, evicting the least recently used key if
    /// full).
    fn touch(&mut self, key: u64) -> bool {
        if let Some(i) = self.keys.iter().position(|&k| k == key) {
            self.keys[..=i].rotate_right(1);
            return true;
        }
        if self.keys.len() < self.capacity {
            self.keys.push(key);
        } else if let Some(lru) = self.keys.last_mut() {
            *lru = key;
        } else {
            return false;
        }
        self.keys.rotate_right(1);
        false
    }
}

/// What every flushed line writes outside the hashed tables: the global
/// flush sequence number and the XPBuffer, whose header shares this one
/// cache line with `seq`.
#[derive(Debug)]
#[repr(align(64))]
struct Hot {
    seq: u64,
    xpbuf: MruKeys,
}

/// Everything one flushed line reads or writes, behind one lock.
#[derive(Debug)]
pub(crate) struct ModelCore {
    hot: Hot,
    reflush: ReflushCache,
    /// XPLine → last flush seq, for separating capacity misses from cold
    /// misses.
    xp_recent: ReflushCache,
    eadr_wc: MruKeys,
    /// The counter totals at the last reset, which snapshots count from.
    pub(crate) zero: StatsSnapshot,
    /// The Fig. 2 flush-address trace; `None` while disabled.
    pub(crate) trace: Option<Vec<FlushRecord>>,
}

/// Outcome of modelling one flush.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FlushOutcome {
    pub cost_ns: u64,
    pub is_reflush: bool,
    pub is_sequential: bool,
    pub xpbuf_miss: bool,
}

/// The most `spin_loop` hints one backoff round of [`LatencyModel::lock_core`]
/// issues before the blocking `lock()`; rounds double from 1.
const MAX_SPIN: u32 = 1024;

/// The shared latency model for one pool.
///
/// A single short critical section per flushed line classifies it,
/// counts it and traces it; this also models the fact that the real
/// DIMM's buffers are themselves a shared, contended resource. The
/// latency is charged after the lock is released, so
/// [`LatencyMode::Spin`] and [`LatencyMode::Sleep`] never wait while
/// holding it. A thread counts its flushes in the counter block its id
/// picks, under the lock, so a snapshot is one consistent cut, and its
/// fences without the lock.
#[derive(Debug)]
pub struct LatencyModel {
    params: ModelParams,
    mode: LatencyMode,
    pmem_mode: PmemMode,
    /// Records the flush-address trace keeps after it is enabled.
    trace_capacity: usize,
    core: Mutex<ModelCore>,
    /// Flush counts (written under the lock) and fence counts (without
    /// it), in blocks picked by thread id.
    pub(crate) counters: Counters,
}

impl LatencyModel {
    pub(crate) fn new(
        params: ModelParams,
        mode: LatencyMode,
        pmem_mode: PmemMode,
        trace_capacity: usize,
    ) -> Self {
        let core = ModelCore {
            hot: Hot { seq: 0, xpbuf: MruKeys::new(params.xpbuf_lines) },
            reflush: ReflushCache::new(1 << 20),
            xp_recent: ReflushCache::new(1 << 18),
            eadr_wc: MruKeys::new(params.eadr_wc_lines),
            zero: StatsSnapshot::default(),
            trace: None,
        };
        LatencyModel {
            params,
            mode,
            pmem_mode,
            trace_capacity,
            core: Mutex::new(core),
            counters: Counters::new(),
        }
    }

    /// The model parameters in force.
    pub fn params(&self) -> &ModelParams {
        &self.params
    }

    /// Latency application mode.
    pub fn mode(&self) -> LatencyMode {
        self.mode
    }

    /// ADR or eADR.
    pub fn pmem_mode(&self) -> PmemMode {
        self.pmem_mode
    }

    /// Take the model lock without parking first: spin on `try_lock`
    /// with exponential backoff (1, 2, 4 … [`MAX_SPIN`] hints), then
    /// block. The spin is bounded and worth it because nothing inside
    /// the critical section charges or sleeps, so a holder lets go within
    /// a few hundred ns, while a parked waiter costs a futex wait and its
    /// holder a futex wake. Under the schedule explorer's hooks the spin
    /// is skipped: there the `contended` hook is the scheduling point.
    pub(crate) fn lock_core(&self) -> MutexGuard<'_, ModelCore> {
        if !parking_lot::sched_hook::installed() {
            let mut spins = 1;
            loop {
                if let Some(core) = self.core.try_lock() {
                    return core;
                }
                if spins > MAX_SPIN {
                    break;
                }
                for _ in 0..spins {
                    std::hint::spin_loop();
                }
                spins *= 2;
            }
        }
        self.core.lock()
    }

    /// Model, count and trace one cache-line flush at byte offset `addr`,
    /// attributed to `kind`.
    pub(crate) fn flush_line(
        &self,
        thread: &mut PmThread,
        addr: u64,
        kind: FlushKind,
    ) -> FlushOutcome {
        let line = line_of(addr);
        // Per-thread sequential/random classification: a flush within
        // `seq_threshold` bytes of the previous flush from this thread is
        // sequential (log appends, bitmap walks — the device's write
        // combining covers short backward hops too).
        let last = thread.last_flush_addr();
        let is_sequential = match last {
            Some(prev) => addr.abs_diff(prev) <= self.params.seq_threshold,
            None => false,
        };
        thread.set_last_flush_addr(addr);

        let outcome = {
            let mut core = self.lock_core();
            let core = &mut *core;
            core.hot.seq += 1;
            let seq = core.hot.seq;
            let outcome = if self.pmem_mode == PmemMode::Eadr {
                // eADR: explicit flushes are free; the store already paid.
                FlushOutcome { cost_ns: 0, is_reflush: false, is_sequential, xpbuf_miss: false }
            } else {
                let prev = core.reflush.touch(line, seq);
                let distance =
                    prev.map(|p| seq - p - 1).filter(|&d| d < self.params.reflush_window);
                let xp = xpline_of(addr);
                let in_buffer = core.hot.xpbuf.touch(xp);
                let last_seen = core.xp_recent.touch(xp, seq);
                // Capacity miss: seen recently, but the buffer already
                // evicted it (lost write combining). Cold misses are free
                // beyond the base media cost.
                let xpbuf_miss =
                    !in_buffer && last_seen.is_some_and(|p| seq - p <= self.params.xpbuf_history);
                let mut cost = if let Some(d) = distance {
                    self.params.reflush_ns[(d as usize).min(self.params.reflush_ns.len() - 1)]
                } else if is_sequential {
                    self.params.seq_flush_ns
                } else {
                    self.params.random_flush_ns
                };
                if xpbuf_miss {
                    cost += self.params.xpbuf_miss_ns;
                }
                FlushOutcome {
                    cost_ns: cost,
                    is_reflush: distance.is_some(),
                    is_sequential,
                    xpbuf_miss,
                }
            };
            // What `charge` below accrues.
            let charged = if self.mode == LatencyMode::Off { 0 } else { outcome.cost_ns };
            self.counters.record_line(
                thread.id(),
                kind,
                outcome.is_reflush,
                outcome.is_sequential,
                outcome.xpbuf_miss,
                charged,
            );
            let capacity = self.trace_capacity;
            if let Some(trace) = core.trace.as_mut().filter(|t| t.len() < capacity) {
                trace.push(FlushRecord { seq, addr: line, kind });
            }
            outcome
        };
        let charged = self.charge(thread, outcome.cost_ns);
        FlushOutcome { cost_ns: charged, ..outcome }
    }

    /// Model a fence; it takes no lock.
    pub(crate) fn fence(&self, thread: &mut PmThread) -> u64 {
        self.counters.record_fence(thread.id());
        self.charge(thread, self.params.fence_ns)
    }

    /// Model a store of `len` bytes at `addr`. Only charged in eADR mode,
    /// where stores reaching the media through the write-combining buffer
    /// are the persistence cost.
    pub(crate) fn store(&self, thread: &mut PmThread, addr: u64, len: usize) -> u64 {
        if self.pmem_mode != PmemMode::Eadr || self.mode == LatencyMode::Off {
            return 0;
        }
        let first = line_of(addr);
        let last = line_of(addr + len.max(1) as u64 - 1);
        let mut cost = 0;
        {
            let mut core = self.lock_core();
            let mut l = first;
            while l <= last {
                if !core.eadr_wc.touch(l) {
                    cost += self.params.eadr_store_miss_ns;
                }
                l += crate::layout::CACHE_LINE as u64;
            }
        }
        self.charge(thread, cost)
    }

    fn charge(&self, thread: &mut PmThread, ns: u64) -> u64 {
        match self.mode {
            LatencyMode::Off => 0,
            LatencyMode::Virtual => {
                thread.accrue_ns(ns);
                ns
            }
            LatencyMode::Spin => {
                thread.accrue_ns(ns);
                spin_for(ns);
                ns
            }
            LatencyMode::Sleep => {
                thread.accrue_ns(ns);
                if let Some(due) = thread.add_sleep_debt(ns, SLEEP_QUANTUM_NS) {
                    std::thread::sleep(std::time::Duration::from_nanos(due));
                }
                ns
            }
        }
    }
}

/// Sleep-mode debt quantum: modelled nanoseconds are slept off in batches
/// of at least this much, amortising per-sleep timer overhead (Linux timer
/// slack alone is ~50 µs) while keeping sleeps frequent enough that they
/// land near the operations that charged them.
const SLEEP_QUANTUM_NS: u64 = 2_000;

fn spin_for(ns: u64) {
    if ns == 0 {
        return;
    }
    let start = std::time::Instant::now();
    while (start.elapsed().as_nanos() as u64) < ns {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(mode: LatencyMode, pmem: PmemMode) -> LatencyModel {
        LatencyModel::new(ModelParams::default(), mode, pmem, 0)
    }

    fn thread() -> PmThread {
        PmThread::new(0)
    }

    #[test]
    fn back_to_back_flush_is_reflush_at_distance_zero() {
        let m = model(LatencyMode::Virtual, PmemMode::Adr);
        let mut t = thread();
        m.flush_line(&mut t, 0, FlushKind::Data);
        let o = m.flush_line(&mut t, 0, FlushKind::Data);
        assert!(o.is_reflush);
        assert_eq!(o.cost_ns, 800 + if o.xpbuf_miss { m.params().xpbuf_miss_ns } else { 0 });
    }

    #[test]
    fn reflush_cost_decreases_with_distance() {
        // A, B, A -> distance 1 -> 700 ns.
        let m = model(LatencyMode::Virtual, PmemMode::Adr);
        let mut t = thread();
        m.flush_line(&mut t, 0, FlushKind::Data);
        m.flush_line(&mut t, 64, FlushKind::Data);
        let o = m.flush_line(&mut t, 0, FlushKind::Data);
        assert!(o.is_reflush);
        assert_eq!(o.cost_ns - if o.xpbuf_miss { m.params().xpbuf_miss_ns } else { 0 }, 700);
    }

    #[test]
    fn distance_beyond_window_is_regular_flush() {
        let m = model(LatencyMode::Virtual, PmemMode::Adr);
        let mut t = thread();
        m.flush_line(&mut t, 0, FlushKind::Data);
        for i in 1..=4u64 {
            m.flush_line(&mut t, i * 64, FlushKind::Data);
        }
        let o = m.flush_line(&mut t, 0, FlushKind::Data);
        assert!(!o.is_reflush);
    }

    #[test]
    fn sequential_cheaper_than_random() {
        let m = model(LatencyMode::Virtual, PmemMode::Adr);
        let mut t = thread();
        m.flush_line(&mut t, 0, FlushKind::Data);
        let seq = m.flush_line(&mut t, 64, FlushKind::Data);
        assert!(seq.is_sequential);
        let rand = m.flush_line(&mut t, 10 << 20, FlushKind::Data);
        assert!(!rand.is_sequential);
        let seq_base = seq.cost_ns - if seq.xpbuf_miss { m.params().xpbuf_miss_ns } else { 0 };
        let rand_base = rand.cost_ns - if rand.xpbuf_miss { m.params().xpbuf_miss_ns } else { 0 };
        assert!(seq_base < rand_base, "{seq_base} !< {rand_base}");
    }

    #[test]
    fn backward_jump_is_random() {
        let m = model(LatencyMode::Virtual, PmemMode::Adr);
        let mut t = thread();
        m.flush_line(&mut t, 1 << 20, FlushKind::Data);
        let o = m.flush_line(&mut t, 64, FlushKind::Data);
        assert!(!o.is_sequential);
    }

    #[test]
    fn eadr_flush_is_free_but_store_charges() {
        let m = model(LatencyMode::Virtual, PmemMode::Eadr);
        let mut t = thread();
        let o = m.flush_line(&mut t, 0, FlushKind::Data);
        assert_eq!(o.cost_ns, 0);
        let c = m.store(&mut t, 1 << 20, 8);
        assert!(c > 0, "cold store should miss the WC buffer");
        let c2 = m.store(&mut t, 1 << 20, 8);
        assert_eq!(c2, 0, "hot store should hit");
    }

    #[test]
    fn adr_store_is_free() {
        let m = model(LatencyMode::Virtual, PmemMode::Adr);
        let mut t = thread();
        assert_eq!(m.store(&mut t, 0, 64), 0);
    }

    #[test]
    fn off_mode_accrues_nothing() {
        let m = model(LatencyMode::Off, PmemMode::Adr);
        let mut t = thread();
        m.flush_line(&mut t, 0, FlushKind::Data);
        m.flush_line(&mut t, 0, FlushKind::Data);
        m.fence(&mut t);
        assert_eq!(t.virtual_ns(), 0);
    }

    #[test]
    fn virtual_mode_accrues_on_thread_clock() {
        let m = model(LatencyMode::Virtual, PmemMode::Adr);
        let mut t = thread();
        m.flush_line(&mut t, 0, FlushKind::Data);
        m.fence(&mut t);
        assert!(t.virtual_ns() >= 110 + 30);
    }

    #[test]
    fn xpbuffer_working_set_detects_misses() {
        let p = ModelParams { xpbuf_lines: 2, ..ModelParams::default() };
        let m = LatencyModel::new(p, LatencyMode::Virtual, PmemMode::Adr, 0);
        let mut t = thread();
        // Three distinct XPLines cycle through a 2-line buffer: all misses.
        for round in 0..2 {
            for i in 0..3u64 {
                let o = m.flush_line(&mut t, i * 256, FlushKind::Data);
                if round > 0 {
                    assert!(o.xpbuf_miss, "line {i} should keep missing");
                }
            }
        }
        // Two lines fit: second round hits.
        let m = LatencyModel::new(
            ModelParams { xpbuf_lines: 2, ..ModelParams::default() },
            LatencyMode::Virtual,
            PmemMode::Adr,
            0,
        );
        let mut t = thread();
        for i in 0..2u64 {
            m.flush_line(&mut t, i * 256, FlushKind::Data);
        }
        for i in 0..2u64 {
            // Interleave >=4 unique lines apart to dodge reflush accounting.
            let o = m.flush_line(&mut t, i * 256 + 64, FlushKind::Data);
            assert!(!o.xpbuf_miss, "warm XPLine {i} should hit");
        }
    }

    #[test]
    fn lru_set_evicts_least_recent() {
        let mut s = MruKeys::new(2);
        assert!(!s.touch(1));
        assert!(!s.touch(2));
        assert!(s.touch(1)); // refresh 1; 2 becomes LRU
        assert!(!s.touch(3)); // evicts 2
        assert!(s.touch(1));
        assert!(!s.touch(2));
    }
}

#[cfg(test)]
mod spin_tests {
    use super::*;

    #[test]
    fn spin_mode_injects_wall_clock_delay() {
        let m = LatencyModel::new(ModelParams::default(), LatencyMode::Spin, PmemMode::Adr, 0);
        let mut t = PmThread::new(0);
        let start = std::time::Instant::now();
        for i in 0..200u64 {
            m.flush_line(&mut t, i * 64, FlushKind::Data);
        }
        let wall = start.elapsed().as_nanos() as u64;
        let virt = t.virtual_ns();
        assert!(virt > 0);
        // The busy-wait must make wall time at least the modelled time
        // (scheduling can only add).
        assert!(wall >= virt, "wall {wall} < virtual {virt}");
    }
}
