//! The emulated persistent-memory pool.
//!
//! A [`PmemPool`] is a fixed-size, offset-addressed byte region standing in
//! for a DAX-mapped heap file. All addressing is by [`PmOffset`] (byte offset
//! from the pool base), matching the offset-based pointer representation the
//! paper uses so heaps can be remapped after recovery (§4.1).
//!
//! Storage is a slice of `AtomicU64` words, so concurrent access from many
//! allocator threads is sound without `unsafe`; aligned 8-byte accesses are
//! single atomic operations (the common case for heap metadata), and
//! sub-word or unaligned accesses fall back to CAS loops on the covering
//! words.
//!
//! With [`PmemConfig::crash_tracking`] enabled the pool keeps a shadow
//! *persistent image* that only receives data on [`PmemPool::flush`]; a
//! simulated power failure ([`PmemPool::crash`]) yields exactly the bytes an
//! ADR platform would have preserved. Crash-injection tests recover a new
//! pool from that image.

use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use crate::error::{PmError, PmResult};
use crate::layout::{line_of, CACHE_LINE};
use crate::model::{LatencyModel, ModelParams};
use crate::pmsan::{PmsanKind, PmsanReport, PmsanState, PmsanWindow, MAX_EXHAUSTIVE_LINES};
use crate::stats::{FlushKind, PmemStats};
use crate::thread::PmThread;
use crate::{LatencyMode, PmemMode};

/// Byte offset from the pool base. The universal "pointer" type of this
/// workspace; persistent structures store these instead of virtual addresses.
pub type PmOffset = u64;

/// Configuration for a [`PmemPool`].
///
/// ```
/// use nvalloc_pmem::{LatencyMode, PmemConfig, PmemPool};
///
/// let pool = PmemPool::new(
///     PmemConfig::default()
///         .pool_size(16 << 20)
///         .latency_mode(LatencyMode::Virtual)
///         .crash_tracking(true),
/// );
/// assert_eq!(pool.size(), 16 << 20);
/// ```
#[derive(Debug, Clone)]
pub struct PmemConfig {
    pool_size: usize,
    latency_mode: LatencyMode,
    pmem_mode: PmemMode,
    params: ModelParams,
    crash_tracking: bool,
    trace_capacity: usize,
    pmsan: bool,
}

impl Default for PmemConfig {
    fn default() -> Self {
        PmemConfig {
            pool_size: 64 << 20,
            latency_mode: LatencyMode::Virtual,
            pmem_mode: PmemMode::Adr,
            params: ModelParams::default(),
            crash_tracking: false,
            trace_capacity: 1 << 17,
            pmsan: false,
        }
    }
}

impl PmemConfig {
    /// Pool size in bytes (rounded up to a cache line).
    pub fn pool_size(mut self, bytes: usize) -> Self {
        self.pool_size = bytes;
        self
    }

    /// How modelled latencies are applied (virtual clock, spin, or off).
    pub fn latency_mode(mut self, mode: LatencyMode) -> Self {
        self.latency_mode = mode;
        self
    }

    /// ADR (flushes required) or eADR (flushes free, stores charged).
    pub fn pmem_mode(mut self, mode: PmemMode) -> Self {
        self.pmem_mode = mode;
        self
    }

    /// Override latency-model constants.
    pub fn model_params(mut self, params: ModelParams) -> Self {
        self.params = params;
        self
    }

    /// Keep a shadow persistent image so [`PmemPool::crash`] can produce
    /// the flushed-only state. Costs one extra copy per flushed line plus
    /// 2× memory.
    pub fn crash_tracking(mut self, enabled: bool) -> Self {
        self.crash_tracking = enabled;
        self
    }

    /// Capacity of the flush-address trace used by the Fig. 2 experiment.
    pub fn trace_capacity(mut self, records: usize) -> Self {
        self.trace_capacity = records;
        self
    }

    /// Enable the persist-ordering sanitizer (see [`crate::pmsan`]).
    /// Observational only: it never touches the latency model, so
    /// modelled measurements are identical with it on or off. Costs one
    /// atomic per 64 B line of shadow state plus per-op bookkeeping.
    pub fn pmsan(mut self, enabled: bool) -> Self {
        self.pmsan = enabled;
        self
    }

    /// Whether the persist-ordering sanitizer is enabled.
    pub fn pmsan_enabled(&self) -> bool {
        self.pmsan
    }
}

/// The flushed-only bytes surviving a simulated power failure.
///
/// Produced by [`PmemPool::crash`]; feed it to [`PmemPool::from_crash_image`]
/// to "reboot".
#[derive(Debug, Clone)]
pub struct CrashImage {
    words: Vec<u64>,
    config: PmemConfig,
}

impl CrashImage {
    /// The raw 8-byte words of the image (heap-file serialisation).
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

/// An emulated persistent-memory pool. See the crate-level docs for the
/// cost model and crash semantics.
///
/// Cheap to share: wrap in an [`Arc`] (constructors already return one).
#[derive(Debug)]
pub struct PmemPool {
    words: Box<[AtomicU64]>,
    shadow: Option<Box<[AtomicU64]>>,
    size: usize,
    model: LatencyModel,
    next_thread: AtomicUsize,
    config: PmemConfig,
    /// Remaining line-flushes that still reach the persistent image
    /// (crash-injection hook; `i64::MAX` = unlimited).
    persist_budget: AtomicI64,
    /// Persist-ordering sanitizer state ([`PmemConfig::pmsan`]).
    pmsan: Option<PmsanState>,
}

fn alloc_words(n: usize) -> Box<[AtomicU64]> {
    // Zeroed backing store; AtomicU64 is repr(transparent) over u64 but we
    // build it without unsafe.
    let mut v = Vec::with_capacity(n);
    v.resize_with(n, || AtomicU64::new(0));
    v.into_boxed_slice()
}

impl PmemPool {
    /// Create a zero-filled pool.
    pub fn new(config: PmemConfig) -> Arc<Self> {
        let size = crate::layout::align_up(config.pool_size as u64, CACHE_LINE as u64) as usize;
        let nwords = size / 8;
        let shadow = config.crash_tracking.then(|| alloc_words(nwords));
        Arc::new(PmemPool {
            words: alloc_words(nwords),
            shadow,
            size,
            model: LatencyModel::new(
                config.params.clone(),
                config.latency_mode,
                config.pmem_mode,
                config.trace_capacity,
            ),
            next_thread: AtomicUsize::new(0),
            pmsan: config.pmsan.then(|| PmsanState::new(size)),
            config,
            persist_budget: AtomicI64::new(i64::MAX),
        })
    }

    /// Rebuild a pool from the persistent image left by a crash. The new
    /// pool's volatile and persistent state both equal the image, exactly
    /// like re-mapping a heap file after a power failure.
    pub fn from_crash_image(image: CrashImage) -> Arc<Self> {
        let nwords = image.words.len();
        let words = alloc_words(nwords);
        for (w, v) in words.iter().zip(&image.words) {
            w.store(*v, Ordering::Relaxed);
        }
        let shadow = image.config.crash_tracking.then(|| {
            let s = alloc_words(nwords);
            for (w, v) in s.iter().zip(&image.words) {
                w.store(*v, Ordering::Relaxed);
            }
            s
        });
        let config = image.config;
        Arc::new(PmemPool {
            words,
            shadow,
            size: nwords * 8,
            model: LatencyModel::new(
                config.params.clone(),
                config.latency_mode,
                config.pmem_mode,
                config.trace_capacity,
            ),
            next_thread: AtomicUsize::new(0),
            // Fresh sanitizer state: the image's contents are the
            // already-durable baseline, i.e. every line starts persisted.
            pmsan: config.pmsan.then(|| PmsanState::new(nwords * 8)),
            config,
            persist_budget: AtomicI64::new(i64::MAX),
        })
    }

    /// Pool size in bytes.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Host address of the pool's first byte. Pool offsets are byte
    /// offsets from this base, so `base_ptr() + off` is the host location
    /// of offset `off` — the mapping a `GlobalAlloc` front end hands out
    /// as real pointers. The backing store lives as long as the pool
    /// (keep the `Arc` alive while any such pointer is in use); writes
    /// made through derived raw pointers are volatile-only — they bypass
    /// the latency model, the sanitizer, and crash tracking, exactly like
    /// CPU stores that were never flushed.
    pub fn base_ptr(&self) -> *const u8 {
        self.words.as_ptr().cast::<u8>()
    }

    /// The configuration this pool was built with.
    pub fn config(&self) -> &PmemConfig {
        &self.config
    }

    /// Event counters.
    pub fn stats(&self) -> PmemStats<'_> {
        PmemStats(&self.model)
    }

    /// The latency model (for parameter inspection).
    pub fn model(&self) -> &LatencyModel {
        &self.model
    }

    /// Register a worker thread; returns its PM handle.
    pub fn register_thread(&self) -> PmThread {
        PmThread::new(self.next_thread.fetch_add(1, Ordering::Relaxed))
    }

    #[inline]
    fn check(&self, off: PmOffset, len: usize) -> PmResult<()> {
        if (off as usize).checked_add(len).is_none_or(|end| end > self.size) {
            return Err(PmError::OutOfBounds { offset: off, len, pool: self.size });
        }
        Ok(())
    }

    #[inline]
    fn bounds_panic(&self, off: PmOffset, len: usize) {
        if let Err(e) = self.check(off, len) {
            panic!("{e}");
        }
    }

    // ----- reads (never charged; the paper's model is write-dominated) -----

    /// Read an aligned `u64`.
    ///
    /// # Panics
    /// Panics if `off` is not 8-byte aligned or out of bounds.
    #[inline]
    pub fn read_u64(&self, off: PmOffset) -> u64 {
        self.bounds_panic(off, 8);
        assert_eq!(off % 8, 0, "unaligned u64 read at {off:#x}");
        self.words[off as usize / 8].load(Ordering::Acquire)
    }

    /// Read an aligned `u32`.
    #[inline]
    pub fn read_u32(&self, off: PmOffset) -> u32 {
        self.bounds_panic(off, 4);
        assert_eq!(off % 4, 0, "unaligned u32 read at {off:#x}");
        let w = self.words[off as usize / 8].load(Ordering::Acquire);
        (w >> ((off % 8) * 8)) as u32
    }

    /// Read an aligned `u16`.
    #[inline]
    pub fn read_u16(&self, off: PmOffset) -> u16 {
        self.bounds_panic(off, 2);
        assert_eq!(off % 2, 0, "unaligned u16 read at {off:#x}");
        let w = self.words[off as usize / 8].load(Ordering::Acquire);
        (w >> ((off % 8) * 8)) as u16
    }

    /// Read one byte.
    #[inline]
    pub fn read_u8(&self, off: PmOffset) -> u8 {
        self.bounds_panic(off, 1);
        let w = self.words[off as usize / 8].load(Ordering::Acquire);
        (w >> ((off % 8) * 8)) as u8
    }

    /// Read `dst.len()` bytes starting at `off`.
    pub fn read_bytes(&self, off: PmOffset, dst: &mut [u8]) {
        self.bounds_panic(off, dst.len());
        for (i, b) in dst.iter_mut().enumerate() {
            let o = off + i as u64;
            let w = self.words[o as usize / 8].load(Ordering::Acquire);
            *b = (w >> ((o % 8) * 8)) as u8;
        }
    }

    // ----- writes -----

    /// pmsan store hook: mark every line of `[off, off+len)` dirty.
    #[inline]
    fn san_store(&self, off: PmOffset, len: usize) {
        if let Some(s) = &self.pmsan {
            s.note_store(off, len);
        }
    }

    /// Write an aligned `u64`, charging the store model (eADR).
    ///
    /// # Panics
    /// Panics if `off` is not 8-byte aligned or out of bounds.
    #[inline]
    pub fn write_u64(&self, off: PmOffset, value: u64) {
        self.bounds_panic(off, 8);
        assert_eq!(off % 8, 0, "unaligned u64 write at {off:#x}");
        self.san_store(off, 8);
        self.words[off as usize / 8].store(value, Ordering::Release);
    }

    /// Write an aligned `u32`.
    #[inline]
    pub fn write_u32(&self, off: PmOffset, value: u32) {
        self.bounds_panic(off, 4);
        assert_eq!(off % 4, 0, "unaligned u32 write at {off:#x}");
        self.san_store(off, 4);
        self.rmw_word(off, 4, value as u64);
    }

    /// Write an aligned `u16`.
    #[inline]
    pub fn write_u16(&self, off: PmOffset, value: u16) {
        self.bounds_panic(off, 2);
        assert_eq!(off % 2, 0, "unaligned u16 write at {off:#x}");
        self.san_store(off, 2);
        self.rmw_word(off, 2, value as u64);
    }

    /// Write one byte.
    #[inline]
    pub fn write_u8(&self, off: PmOffset, value: u8) {
        self.bounds_panic(off, 1);
        self.san_store(off, 1);
        self.rmw_word(off, 1, value as u64);
    }

    #[inline]
    fn rmw_word(&self, off: PmOffset, len: u64, value: u64) {
        let shift = (off % 8) * 8;
        let mask = if len == 8 { u64::MAX } else { ((1u64 << (len * 8)) - 1) << shift };
        let word = &self.words[off as usize / 8];
        let mut cur = word.load(Ordering::Relaxed);
        loop {
            let new = (cur & !mask) | ((value << shift) & mask);
            match word.compare_exchange_weak(cur, new, Ordering::AcqRel, Ordering::Relaxed) {
                Ok(_) => return,
                Err(c) => cur = c,
            }
        }
    }

    /// Write `src` starting at `off`.
    pub fn write_bytes(&self, off: PmOffset, src: &[u8]) {
        self.bounds_panic(off, src.len());
        self.san_store(off, src.len());
        let mut i = 0usize;
        // Leading partial word.
        while i < src.len() && !(off + i as u64).is_multiple_of(8) {
            self.rmw_word(off + i as u64, 1, src[i] as u64);
            i += 1;
        }
        // Full words.
        while i + 8 <= src.len() {
            let v = u64::from_le_bytes(src[i..i + 8].try_into().expect("8-byte chunk"));
            self.words[(off as usize + i) / 8].store(v, Ordering::Release);
            i += 8;
        }
        // Trailing bytes.
        while i < src.len() {
            self.rmw_word(off + i as u64, 1, src[i] as u64);
            i += 1;
        }
    }

    /// Fill `len` bytes at `off` with `byte`.
    pub fn fill_bytes(&self, off: PmOffset, len: usize, byte: u8) {
        self.bounds_panic(off, len);
        self.san_store(off, len);
        let word = u64::from_le_bytes([byte; 8]);
        let mut i = 0usize;
        while i < len && !(off + i as u64).is_multiple_of(8) {
            self.rmw_word(off + i as u64, 1, byte as u64);
            i += 1;
        }
        while i + 8 <= len {
            self.words[(off as usize + i) / 8].store(word, Ordering::Release);
            i += 8;
        }
        while i < len {
            self.rmw_word(off + i as u64, 1, byte as u64);
            i += 1;
        }
    }

    /// Atomically OR `bits` into the aligned `u64` at `off`; returns the
    /// previous value.
    #[inline]
    pub fn fetch_or_u64(&self, off: PmOffset, bits: u64) -> u64 {
        self.bounds_panic(off, 8);
        assert_eq!(off % 8, 0);
        self.san_store(off, 8);
        self.words[off as usize / 8].fetch_or(bits, Ordering::AcqRel)
    }

    /// Atomically AND `bits` into the aligned `u64` at `off`; returns the
    /// previous value.
    #[inline]
    pub fn fetch_and_u64(&self, off: PmOffset, bits: u64) -> u64 {
        self.bounds_panic(off, 8);
        assert_eq!(off % 8, 0);
        self.san_store(off, 8);
        self.words[off as usize / 8].fetch_and(bits, Ordering::AcqRel)
    }

    /// Atomically compare-and-swap the aligned `u64` at `off`.
    ///
    /// # Errors
    /// Returns the actual current value if it did not match `expected`.
    #[inline]
    pub fn compare_exchange_u64(&self, off: PmOffset, expected: u64, new: u64) -> Result<u64, u64> {
        self.bounds_panic(off, 8);
        assert_eq!(off % 8, 0);
        let r = self.words[off as usize / 8].compare_exchange(
            expected,
            new,
            Ordering::AcqRel,
            Ordering::Acquire,
        );
        if r.is_ok() {
            self.san_store(off, 8);
        }
        r
    }

    // ----- persistence -----

    /// Charge the eADR store model for a write of `len` bytes at `off`.
    ///
    /// On ADR platforms this is free; call it after stores on paths that the
    /// eADR experiments measure. Kept separate from the write methods so
    /// initialisation and volatile scratch writes do not distort the model.
    #[inline]
    pub fn charge_store(&self, thread: &mut PmThread, off: PmOffset, len: usize) {
        if let Some(s) = &self.pmsan {
            s.on_charge(thread, off, len);
        }
        self.model.store(thread, off, len);
    }

    /// Flush (clwb-equivalent) every cache line covering `[off, off+len)`.
    ///
    /// Counts, classifies (reflush / sequential / random / XPBuffer), and
    /// charges each line. With crash tracking on, copies the lines into the
    /// persistent image.
    pub fn flush(&self, thread: &mut PmThread, off: PmOffset, len: usize, kind: FlushKind) {
        self.flush_impl(thread, off, len, kind, true);
    }

    /// [`PmemPool::flush`], declared as a *writeback sweep*: a flush of a
    /// range that may legitimately already be persisted (shutdown
    /// writeback, belt-and-braces sweeps before an audit). Identical
    /// cost model and crash semantics; the only difference is that the
    /// pmsan redundant-flush check is skipped, which for small targeted
    /// flushes would otherwise flag re-flushing clean lines.
    pub fn flush_writeback(
        &self,
        thread: &mut PmThread,
        off: PmOffset,
        len: usize,
        kind: FlushKind,
    ) {
        self.flush_impl(thread, off, len, kind, false);
    }

    fn flush_impl(
        &self,
        thread: &mut PmThread,
        off: PmOffset,
        len: usize,
        kind: FlushKind,
        check_redundant: bool,
    ) {
        if len == 0 {
            return;
        }
        self.bounds_panic(off, len);
        thread.flushed_since_fence = thread.flushed_since_fence.saturating_add(1);
        let first = line_of(off);
        let last = line_of(off + len as u64 - 1);
        if check_redundant {
            if let Some(s) = &self.pmsan {
                s.on_flush_call(thread, first, last, kind);
            }
        }
        let mut line = first;
        while line <= last {
            self.model.flush_line(thread, line, kind);
            if let Some(shadow) = &self.shadow {
                // Crash-injection hook: once the persistence budget runs
                // out, flushes keep "succeeding" from the program's point
                // of view but no longer reach the media — exactly the
                // in-flight state a power failure at that flush leaves.
                if self.persist_budget.fetch_sub(1, Ordering::Relaxed) > 0 {
                    let w0 = line as usize / 8;
                    if let Some(s) = &self.pmsan {
                        // Window undo log: capture the line's pre-flush
                        // persistent content before overwriting it.
                        if s.window_active() {
                            let mut old = [0u64; 8];
                            for (i, o) in old.iter_mut().enumerate() {
                                *o = shadow[w0 + i].load(Ordering::Acquire);
                            }
                            s.window_note(line, old);
                        }
                    }
                    for i in 0..CACHE_LINE / 8 {
                        shadow[w0 + i]
                            .store(self.words[w0 + i].load(Ordering::Acquire), Ordering::Release);
                    }
                }
            }
            if let Some(s) = &self.pmsan {
                s.on_flush_line(thread, line);
            }
            line += CACHE_LINE as u64;
        }
    }

    /// Store fence (sfence-equivalent): orders prior flushes.
    pub fn fence(&self, thread: &mut PmThread) {
        if let Some(s) = &self.pmsan {
            s.on_fence(thread);
        }
        thread.flushed_since_fence = 0;
        self.model.fence(thread);
    }

    /// Fence only if this thread has flushes pending since its last
    /// fence — the explicit-ordering form for code that flushes
    /// conditionally (quiesce, shutdown sweeps) and must not issue
    /// fences that order nothing.
    pub fn fence_pending(&self, thread: &mut PmThread) {
        if thread.flushed_since_fence > 0 {
            self.fence(thread);
        }
    }

    /// Convenience: write an aligned `u64` and flush+fence it (the classic
    /// 8-byte atomic persistent store).
    pub fn persist_u64(&self, thread: &mut PmThread, off: PmOffset, value: u64, kind: FlushKind) {
        self.write_u64(off, value);
        self.charge_store(thread, off, 8);
        self.flush(thread, off, 8, kind);
        self.fence(thread);
    }

    /// Make `[off, off+len)` durably zero (a pool format), paying only for
    /// the lines that are not zero already. An all-zero range, as on fresh
    /// media, costs no store, flush or fence. Otherwise every line holding
    /// a non-zero word is zeroed and flushed, and one fence follows. Lines
    /// left alone already hold their durable content, so the sanitizer is
    /// told no flush is owed for them.
    ///
    /// # Panics
    /// Panics if the range is out of bounds or not whole cache lines.
    pub fn persist_zero(&self, thread: &mut PmThread, off: PmOffset, len: usize, kind: FlushKind) {
        self.bounds_panic(off, len);
        assert!(
            off.is_multiple_of(CACHE_LINE as u64) && len.is_multiple_of(CACHE_LINE),
            "persist_zero of {off:#x}+{len:#x}: not whole cache lines"
        );
        let words = &self.words[off as usize / 8..(off as usize + len) / 8];
        let zero = |w: &AtomicU64| w.load(Ordering::Acquire) == 0;
        if words.iter().all(zero) {
            self.pmsan_mark_persisted(off, len);
            return;
        }
        for (i, line) in words.chunks(CACHE_LINE / 8).enumerate() {
            let at = off + (i * CACHE_LINE) as u64;
            if line.iter().all(zero) {
                self.pmsan_mark_persisted(at, CACHE_LINE);
            } else {
                self.fill_bytes(at, CACHE_LINE, 0);
                self.charge_store(thread, at, CACHE_LINE);
                self.flush(thread, at, CACHE_LINE, kind);
            }
        }
        self.fence(thread);
    }

    /// Stop persisting after `n` more line-flushes (crash injection at
    /// flush granularity). Later flushes are modelled and counted but no
    /// longer reach the persistent image, as if power failed at that
    /// point; take the image with [`PmemPool::crash`]. Requires crash
    /// tracking.
    pub fn freeze_persistence_after(&self, n: u64) {
        assert!(self.shadow.is_some(), "freeze_persistence_after requires crash tracking");
        self.persist_budget.store(n as i64, Ordering::Relaxed);
    }

    /// Simulate a power failure: returns the persistent image (flushed bytes
    /// only).
    ///
    /// ```
    /// use nvalloc_pmem::{FlushKind, PmemConfig, PmemPool};
    /// let pool = PmemPool::new(PmemConfig::default().pool_size(4096).crash_tracking(true));
    /// let mut t = pool.register_thread();
    /// pool.write_u64(0, 1);           // flushed below: survives
    /// pool.flush(&mut t, 0, 8, FlushKind::Data);
    /// pool.write_u64(64, 2);          // never flushed: lost
    /// let rebooted = PmemPool::from_crash_image(pool.crash());
    /// assert_eq!(rebooted.read_u64(0), 1);
    /// assert_eq!(rebooted.read_u64(64), 0);
    /// ```
    ///
    /// # Panics
    /// Panics unless the pool was built with
    /// [`PmemConfig::crash_tracking`]`(true)`.
    pub fn crash(&self) -> CrashImage {
        let shadow =
            self.shadow.as_ref().expect("crash() requires PmemConfig::crash_tracking(true)");
        let words = shadow.iter().map(|w| w.load(Ordering::Acquire)).collect();
        CrashImage { words, config: self.config.clone() }
    }

    /// Build a pool whose volatile (and, with crash tracking, persistent)
    /// state equals `words` — used when opening heap files.
    pub fn from_words(words: Vec<u64>, config: PmemConfig) -> Arc<Self> {
        let config = config.pool_size(words.len() * 8);
        PmemPool::from_crash_image(CrashImage { words, config })
    }

    /// Copy the full *volatile* state into a crash image — what an orderly
    /// `nvalloc_exit()` leaves behind (everything written back).
    pub fn clean_shutdown_image(&self) -> CrashImage {
        let words = self.words.iter().map(|w| w.load(Ordering::Acquire)).collect();
        CrashImage { words, config: self.config.clone() }
    }

    // ----- pmsan: persist-ordering sanitizer (see `crate::pmsan`) -----

    /// True when the pool carries sanitizer state
    /// ([`PmemConfig::pmsan`]).
    pub fn pmsan_enabled(&self) -> bool {
        self.pmsan.is_some()
    }

    /// Total violations recorded so far (0 when the sanitizer is off).
    pub fn pmsan_total(&self) -> u64 {
        self.pmsan.as_ref().map_or(0, |s| s.report().total())
    }

    /// Snapshot of the violation counters and recorded contexts.
    pub fn pmsan_report(&self) -> Option<PmsanReport> {
        self.pmsan.as_ref().map(|s| s.report())
    }

    /// Per-kind violation counters, indexed like
    /// [`crate::pmsan::PmsanKind::ALL`].
    pub fn pmsan_counts(&self) -> Option<[u64; 4]> {
        self.pmsan.as_ref().map(|s| s.report().counts)
    }

    /// True when every store to the line holding `off` has been flushed
    /// and fenced (trivially true with the sanitizer off).
    pub fn pmsan_line_persisted(&self, off: PmOffset) -> bool {
        self.pmsan.as_ref().is_none_or(|s| s.line_persisted(line_of(off)))
    }

    /// Mark `[off, off+len)` persisted without touching the model. For
    /// states durable by construction only — e.g. a fresh pool's
    /// metadata zero-fill re-stores bytes the zeroed backing file
    /// already holds, so no flush is owed for them.
    pub fn pmsan_mark_persisted(&self, off: PmOffset, len: usize) {
        if let Some(s) = &self.pmsan {
            self.bounds_panic(off, len);
            s.mark_persisted(off, len);
        }
    }

    /// Shutdown audit: record a [`PmsanKind::ShutdownDirty`] violation
    /// for every line in `[off, off+len)` that is still unpersisted.
    /// Returns how many were found (0 when the sanitizer is off).
    pub fn pmsan_audit_range(&self, thread: &PmThread, off: PmOffset, len: usize) -> usize {
        let Some(s) = &self.pmsan else { return 0 };
        if len == 0 {
            return 0;
        }
        self.bounds_panic(off, len);
        let mut dirty = 0;
        let mut line = line_of(off);
        let last = line_of(off + len as u64 - 1);
        while line <= last {
            if !s.line_persisted(line) {
                s.record(thread, PmsanKind::ShutdownDirty, line, None);
                dirty += 1;
            }
            line += CACHE_LINE as u64;
        }
        dirty
    }

    /// Start recording a crash-image enumeration window. Requires the
    /// sanitizer *and* crash tracking (the undo log is relative to the
    /// shadow persistent image).
    ///
    /// # Panics
    /// Panics unless both [`PmemConfig::pmsan`] and
    /// [`PmemConfig::crash_tracking`] are enabled.
    pub fn pmsan_window_begin(&self) {
        assert!(self.shadow.is_some(), "pmsan windows require crash_tracking");
        self.pmsan.as_ref().expect("pmsan windows require PmemConfig::pmsan").window_begin();
    }

    /// Close the window and return its undo log for
    /// [`PmemPool::pmsan_window_images`].
    pub fn pmsan_window_end(&self) -> PmsanWindow {
        self.pmsan.as_ref().expect("pmsan windows require PmemConfig::pmsan").window_end()
    }

    /// Enumerate every distinct legal crash image at each fence inside
    /// `window`, oldest fence last: the persisted image at that fence
    /// plus each subset of the fence's flushed-pending lines (exhaustive
    /// up to [`crate::pmsan::MAX_EXHAUSTIVE_LINES`] pending lines per
    /// fence, the empty/full/each-single-omitted boundary subsets
    /// beyond), de-duplicated, capped at `max_images`.
    pub fn pmsan_window_images(&self, window: &PmsanWindow, max_images: usize) -> Vec<CrashImage> {
        let shadow = self.shadow.as_ref().expect("pmsan_window_images requires crash_tracking");
        let mut cur: Vec<u64> = shadow.iter().map(|w| w.load(Ordering::Acquire)).collect();
        // Roll back the unfenced tail first: those flushes are applied
        // in the shadow but not yet committed by any fence.
        revert_epoch(&mut cur, &window.tail);
        let mut out = Vec::new();
        let mut seen = std::collections::HashSet::new();
        // Walk fences newest→oldest; `cur` is the all-pending-applied
        // image at the fence under inspection.
        for epoch in window.fences.iter().rev() {
            let n = epoch.len();
            if n <= MAX_EXHAUSTIVE_LINES {
                for mask in 0..(1u64 << n) {
                    let mut img = cur.clone();
                    for (i, (line, old)) in epoch.iter().enumerate() {
                        if mask & (1 << i) == 0 {
                            revert_line(&mut img, *line, old);
                        }
                    }
                    push_image(&mut out, &mut seen, img, &self.config, max_images);
                }
            } else {
                // Boundary subsets: all pending persisted, none, and
                // each single line omitted.
                push_image(&mut out, &mut seen, cur.clone(), &self.config, max_images);
                let mut none = cur.clone();
                revert_epoch(&mut none, epoch);
                push_image(&mut out, &mut seen, none, &self.config, max_images);
                for (line, old) in epoch {
                    let mut img = cur.clone();
                    revert_line(&mut img, *line, old);
                    push_image(&mut out, &mut seen, img, &self.config, max_images);
                }
            }
            if out.len() >= max_images {
                break;
            }
            // Unwind this epoch to position `cur` at the previous fence.
            revert_epoch(&mut cur, epoch);
        }
        out
    }
}

/// Overwrite one 64 B line of `words` with its recorded old content.
fn revert_line(words: &mut [u64], line: u64, old: &[u64; 8]) {
    let w0 = line as usize / 8;
    words[w0..w0 + 8].copy_from_slice(old);
}

/// Revert every line of an epoch (first-flush old contents).
fn revert_epoch(words: &mut [u64], epoch: &[(u64, [u64; 8])]) {
    for (line, old) in epoch {
        revert_line(words, *line, old);
    }
}

/// Append `img` as a [`CrashImage`] unless an identical image was
/// already emitted or the cap is reached.
fn push_image(
    out: &mut Vec<CrashImage>,
    seen: &mut std::collections::HashSet<u64>,
    img: Vec<u64>,
    config: &PmemConfig,
    max_images: usize,
) {
    if out.len() >= max_images {
        return;
    }
    // FNV-1a over the words: cheap content identity for de-duplication.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in &img {
        h ^= *w;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    if seen.insert(h) {
        out.push(CrashImage { words: img, config: config.clone() });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> Arc<PmemPool> {
        PmemPool::new(PmemConfig::default().pool_size(1 << 16).latency_mode(LatencyMode::Off))
    }

    #[test]
    fn u64_roundtrip() {
        let p = pool();
        p.write_u64(128, 0x0123_4567_89ab_cdef);
        assert_eq!(p.read_u64(128), 0x0123_4567_89ab_cdef);
    }

    #[test]
    fn subword_roundtrips() {
        let p = pool();
        p.write_u8(3, 0xab);
        p.write_u16(4, 0xbeef);
        p.write_u32(8, 0xdead_beef);
        assert_eq!(p.read_u8(3), 0xab);
        assert_eq!(p.read_u16(4), 0xbeef);
        assert_eq!(p.read_u32(8), 0xdead_beef);
        // Neighbours untouched.
        assert_eq!(p.read_u8(2), 0);
        assert_eq!(p.read_u16(6), 0);
    }

    #[test]
    fn bytes_roundtrip_unaligned() {
        let p = pool();
        let src: Vec<u8> = (0..37).collect();
        p.write_bytes(13, &src);
        let mut dst = vec![0u8; 37];
        p.read_bytes(13, &mut dst);
        assert_eq!(src, dst);
    }

    #[test]
    fn fill_bytes_works() {
        let p = pool();
        p.fill_bytes(5, 100, 0x5a);
        let mut dst = vec![0u8; 102];
        p.read_bytes(4, &mut dst);
        assert_eq!(dst[0], 0);
        assert!(dst[1..101].iter().all(|&b| b == 0x5a));
        assert_eq!(dst[101], 0);
    }

    #[test]
    fn fetch_ops() {
        let p = pool();
        p.write_u64(0, 0b1010);
        assert_eq!(p.fetch_or_u64(0, 0b0101), 0b1010);
        assert_eq!(p.read_u64(0), 0b1111);
        assert_eq!(p.fetch_and_u64(0, 0b0011), 0b1111);
        assert_eq!(p.read_u64(0), 0b0011);
        assert_eq!(p.compare_exchange_u64(0, 0b0011, 7), Ok(0b0011));
        assert_eq!(p.compare_exchange_u64(0, 0b0011, 9), Err(7));
    }

    #[test]
    #[should_panic(expected = "exceeds pool")]
    fn out_of_bounds_read_panics() {
        let p = pool();
        p.read_u64(1 << 16);
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn unaligned_u64_panics() {
        let p = pool();
        p.read_u64(4);
    }

    #[test]
    fn flush_spans_lines_and_counts() {
        let p = pool();
        let mut t = p.register_thread();
        p.flush(&mut t, 60, 8, FlushKind::Meta); // crosses a line boundary
        assert_eq!(p.stats().flushes(), 2);
    }

    #[test]
    fn register_thread_takes_no_model_lock() {
        // The shim's GlobalAlloc registers threads inside allocations that
        // flush through the model lock, so registering must not take it.
        let p = pool();
        let held = p.model().lock_core();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(|| tx.send(p.register_thread().id()).unwrap());
            let registered = rx.recv_timeout(std::time::Duration::from_secs(10));
            drop(held);
            assert_eq!(registered, Ok(0), "register_thread waited on the model lock");
        });
    }

    #[test]
    fn crash_preserves_only_flushed_lines() {
        let p = PmemPool::new(
            PmemConfig::default()
                .pool_size(4096)
                .latency_mode(LatencyMode::Off)
                .crash_tracking(true),
        );
        let mut t = p.register_thread();
        p.write_u64(0, 111);
        p.write_u64(64, 222);
        p.flush(&mut t, 0, 8, FlushKind::Data);
        p.fence(&mut t);
        // Line at 64 never flushed.
        let rebooted = PmemPool::from_crash_image(p.crash());
        assert_eq!(rebooted.read_u64(0), 111);
        assert_eq!(rebooted.read_u64(64), 0, "unflushed line must be lost");
    }

    #[test]
    fn clean_shutdown_image_keeps_everything() {
        let p = PmemPool::new(
            PmemConfig::default()
                .pool_size(4096)
                .latency_mode(LatencyMode::Off)
                .crash_tracking(true),
        );
        p.write_u64(64, 222);
        let rebooted = PmemPool::from_crash_image(p.clean_shutdown_image());
        assert_eq!(rebooted.read_u64(64), 222);
    }

    #[test]
    fn persist_u64_is_atomic_durable() {
        let p = PmemPool::new(
            PmemConfig::default()
                .pool_size(4096)
                .latency_mode(LatencyMode::Off)
                .crash_tracking(true),
        );
        let mut t = p.register_thread();
        p.persist_u64(&mut t, 512, 77, FlushKind::Meta);
        let rebooted = PmemPool::from_crash_image(p.crash());
        assert_eq!(rebooted.read_u64(512), 77);
    }

    #[test]
    fn thread_ids_are_dense() {
        let p = pool();
        assert_eq!(p.register_thread().id(), 0);
        assert_eq!(p.register_thread().id(), 1);
    }

    #[test]
    fn concurrent_disjoint_writes() {
        let p =
            PmemPool::new(PmemConfig::default().pool_size(1 << 20).latency_mode(LatencyMode::Off));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let p = &p;
                s.spawn(move || {
                    for i in 0..1000u64 {
                        let off = (t * 1000 + i) * 8;
                        p.write_u64(off, t << 32 | i);
                    }
                });
            }
        });
        for t in 0..4u64 {
            for i in 0..1000u64 {
                assert_eq!(p.read_u64((t * 1000 + i) * 8), t << 32 | i);
            }
        }
    }

    #[test]
    fn concurrent_byte_neighbours_no_tearing() {
        // Two threads CAS-write adjacent bytes of the same word.
        let p = PmemPool::new(PmemConfig::default().pool_size(4096).latency_mode(LatencyMode::Off));
        std::thread::scope(|s| {
            for b in 0..8u64 {
                let p = &p;
                s.spawn(move || {
                    for _ in 0..10_000 {
                        p.write_u8(b, b as u8 + 1);
                    }
                });
            }
        });
        for b in 0..8u64 {
            assert_eq!(p.read_u8(b), b as u8 + 1);
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn small_pool() -> Arc<PmemPool> {
        PmemPool::new(
            PmemConfig::default().pool_size(1 << 16).latency_mode(crate::LatencyMode::Off),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

        #[test]
        fn bytes_roundtrip_any_offset(off in 0u64..60_000, data in proptest::collection::vec(any::<u8>(), 1..300)) {
            let p = small_pool();
            let off = off.min((1 << 16) - data.len() as u64);
            p.write_bytes(off, &data);
            let mut back = vec![0u8; data.len()];
            p.read_bytes(off, &mut back);
            prop_assert_eq!(back, data);
        }

        #[test]
        fn subword_writes_do_not_tear_neighbours(
            word in 0u64..8000,
            byte_in_word in 0u64..8,
            val in any::<u8>(),
        ) {
            let p = small_pool();
            let base = word * 8;
            p.write_u64(base, 0xA5A5_A5A5_A5A5_A5A5);
            p.write_u8(base + byte_in_word, val);
            for b in 0..8u64 {
                let expect = if b == byte_in_word { val } else { 0xA5 };
                prop_assert_eq!(p.read_u8(base + b), expect);
            }
        }

        #[test]
        fn fill_then_overwrite_window(
            start in 0u64..30_000,
            len in 1usize..500,
            fill in any::<u8>(),
        ) {
            let p = small_pool();
            p.fill_bytes(start, len, fill);
            let mut back = vec![0u8; len + 2];
            let probe = start.saturating_sub(1);
            p.read_bytes(probe, &mut back[..len.min(100) + 1]);
            // Byte before the window (if any) stays zero.
            if start > 0 {
                prop_assert_eq!(back[0], 0);
            }
        }

        #[test]
        fn crash_image_reflects_flush_set(lines in proptest::collection::btree_set(0u64..64, 1..32)) {
            let p = PmemPool::new(
                PmemConfig::default()
                    .pool_size(64 * 64)
                    .latency_mode(crate::LatencyMode::Off)
                    .crash_tracking(true),
            );
            let mut t = p.register_thread();
            for l in 0..64u64 {
                p.write_u64(l * 64, l + 1);
            }
            for &l in &lines {
                p.flush(&mut t, l * 64, 8, FlushKind::Data);
            }
            let img = PmemPool::from_crash_image(p.crash());
            for l in 0..64u64 {
                let expect = if lines.contains(&l) { l + 1 } else { 0 };
                prop_assert_eq!(img.read_u64(l * 64), expect, "line {}", l);
            }
        }
    }
}

#[cfg(test)]
mod pmsan_tests {
    use super::*;
    use crate::pmsan::PmsanKind;

    fn san_pool() -> Arc<PmemPool> {
        PmemPool::new(
            PmemConfig::default()
                .pool_size(1 << 16)
                .latency_mode(LatencyMode::Off)
                .crash_tracking(true)
                .pmsan(true),
        )
    }

    #[test]
    fn clean_persist_sequence_has_no_violations() {
        let p = san_pool();
        let mut t = p.register_thread();
        for i in 0..16u64 {
            p.persist_u64(&mut t, i * 64, i + 1, FlushKind::Meta);
        }
        assert_eq!(p.pmsan_total(), 0, "{}", p.pmsan_report().unwrap().to_json());
        assert!(p.pmsan_line_persisted(0));
    }

    #[test]
    fn store_over_unfenced_flush_is_flagged() {
        let p = san_pool();
        let mut t = p.register_thread();
        p.write_u64(64, 1);
        p.charge_store(&mut t, 64, 8);
        p.flush(&mut t, 64, 8, FlushKind::Meta);
        // No fence: the dependent store below races the flush to the media.
        p.write_u64(72, 2);
        p.charge_store(&mut t, 72, 8);
        let r = p.pmsan_report().unwrap();
        assert_eq!(r.count(PmsanKind::StoreUnfenced), 1, "{}", r.to_json());
        assert_eq!(r.violations[0].line, 64);
    }

    #[test]
    fn fence_after_flush_clears_pending() {
        let p = san_pool();
        let mut t = p.register_thread();
        p.write_u64(64, 1);
        p.charge_store(&mut t, 64, 8);
        p.flush(&mut t, 64, 8, FlushKind::Meta);
        p.fence(&mut t);
        // Same-line store after the fence is a fresh epoch, not a violation.
        p.write_u64(72, 2);
        p.charge_store(&mut t, 72, 8);
        p.flush(&mut t, 72, 8, FlushKind::Meta);
        p.fence(&mut t);
        assert_eq!(p.pmsan_total(), 0);
    }

    #[test]
    fn empty_fence_is_flagged_and_fence_pending_is_not() {
        let p = san_pool();
        let mut t = p.register_thread();
        p.fence(&mut t);
        assert_eq!(p.pmsan_report().unwrap().count(PmsanKind::EmptyFence), 1);
        // fence_pending with nothing flushed is a no-op, not a violation.
        p.fence_pending(&mut t);
        assert_eq!(p.pmsan_report().unwrap().count(PmsanKind::EmptyFence), 1);
        p.write_u64(0, 9);
        p.charge_store(&mut t, 0, 8);
        p.flush(&mut t, 0, 8, FlushKind::Meta);
        p.fence_pending(&mut t);
        assert_eq!(p.pmsan_total(), 1);
        assert!(p.pmsan_line_persisted(0));
    }

    #[test]
    fn redundant_flush_of_clean_line_is_flagged() {
        let p = san_pool();
        let mut t = p.register_thread();
        p.persist_u64(&mut t, 128, 7, FlushKind::Meta);
        assert_eq!(p.pmsan_total(), 0);
        // Line 128 is persisted; flushing it again orders nothing.
        p.flush(&mut t, 128, 8, FlushKind::Meta);
        p.fence(&mut t);
        let r = p.pmsan_report().unwrap();
        assert_eq!(r.count(PmsanKind::RedundantFlush), 1, "{}", r.to_json());
    }

    #[test]
    fn cross_thread_same_line_flushes_are_benign() {
        let p = san_pool();
        let mut t1 = p.register_thread();
        let mut t2 = p.register_thread();
        // Both threads store+flush disjoint words of one line; each fences
        // its own flush. Neither owns the other's pending entry.
        p.write_u64(64, 1);
        p.charge_store(&mut t1, 64, 8);
        p.flush(&mut t1, 64, 8, FlushKind::Meta);
        p.write_u64(72, 2);
        p.charge_store(&mut t2, 72, 8);
        p.flush(&mut t2, 72, 8, FlushKind::Meta);
        p.fence(&mut t1);
        p.fence(&mut t2);
        assert_eq!(p.pmsan_total(), 0, "{}", p.pmsan_report().unwrap().to_json());
    }

    #[test]
    fn shutdown_audit_counts_unpersisted_lines() {
        let p = san_pool();
        let mut t = p.register_thread();
        p.persist_u64(&mut t, 0, 1, FlushKind::Meta);
        p.write_u64(64, 2); // dirty, never flushed
        p.write_u64(128, 3);
        p.charge_store(&mut t, 128, 8);
        p.flush(&mut t, 128, 8, FlushKind::Meta); // flushed, never fenced
        let dirty = p.pmsan_audit_range(&t, 0, 3 * 64);
        assert_eq!(dirty, 2);
        let r = p.pmsan_report().unwrap();
        assert_eq!(r.count(PmsanKind::ShutdownDirty), 2);
    }

    #[test]
    fn persist_zero_pays_only_for_non_zero_lines() {
        // Fresh media: nothing to store, flush or fence.
        let p = san_pool();
        let mut t = p.register_thread();
        p.persist_zero(&mut t, 0, 4096, FlushKind::Meta);
        assert_eq!((p.stats().flushes(), p.stats().fences()), (0, 0));
        assert_eq!(p.pmsan_audit_range(&t, 0, 4096), 0);
        // Old words on two lines: both are zeroed durably, one fence.
        let p = san_pool();
        let mut t = p.register_thread();
        p.persist_u64(&mut t, 8, u64::MAX, FlushKind::Meta);
        p.persist_u64(&mut t, 1000, 7, FlushKind::Meta);
        p.write_u64(2048, 9); // stored, never flushed
        p.stats().reset();
        p.persist_zero(&mut t, 0, 2048, FlushKind::Meta);
        assert_eq!((p.stats().flushes(), p.stats().fences()), (2, 1));
        assert_eq!(p.pmsan_total(), 0, "{:?}", p.pmsan_report());
        assert_eq!(p.pmsan_audit_range(&t, 0, 2048), 0);
        let img = PmemPool::from_crash_image(p.crash());
        assert!((0..2048).step_by(8).all(|off| img.read_u64(off) == 0));
        assert_eq!(p.read_u64(2048), 9, "words past the range are left alone");
    }

    #[test]
    fn mark_persisted_silences_audit() {
        let p = san_pool();
        let t = p.register_thread();
        p.fill_bytes(0, 256, 0);
        p.pmsan_mark_persisted(0, 256);
        assert_eq!(p.pmsan_audit_range(&t, 0, 256), 0);
    }

    #[test]
    fn window_enumerates_per_fence_subsets() {
        let p = san_pool();
        let mut t = p.register_thread();
        // Committed baseline.
        p.persist_u64(&mut t, 0, 0xaa, FlushKind::Meta);
        p.pmsan_window_begin();
        // Fence 1: two pending lines -> 4 subsets.
        p.write_u64(64, 1);
        p.charge_store(&mut t, 64, 8);
        p.write_u64(128, 2);
        p.charge_store(&mut t, 128, 8);
        p.flush(&mut t, 64, 8, FlushKind::Meta);
        p.flush(&mut t, 128, 8, FlushKind::Meta);
        p.fence(&mut t);
        // Fence 2: one pending line -> 2 subsets.
        p.write_u64(192, 3);
        p.charge_store(&mut t, 192, 8);
        p.flush(&mut t, 192, 8, FlushKind::Meta);
        p.fence(&mut t);
        let w = p.pmsan_window_end();
        assert_eq!(w.fence_count(), 2);
        assert!(!w.truncated());
        let images = p.pmsan_window_images(&w, 64);
        // Distinct images: at fence 2 {192 in, 192 out}; at fence 1 the four
        // subsets of {64,128} with 192 rolled back — "all out" at fence 2
        // equals "all in" at fence 1, so 2 + 4 - 1 = 5 distinct.
        assert_eq!(images.len(), 5);
        for img in images {
            let ip = PmemPool::from_crash_image(img);
            // The pre-window committed line survives in every image.
            assert_eq!(ip.read_u64(0), 0xaa);
            // Causality: line 192 persisted implies fence 1 completed.
            if ip.read_u64(192) == 3 {
                assert_eq!(ip.read_u64(64), 1);
                assert_eq!(ip.read_u64(128), 2);
            }
        }
    }

    #[test]
    fn window_tail_flushes_are_not_committed() {
        let p = san_pool();
        let mut t = p.register_thread();
        p.pmsan_window_begin();
        p.write_u64(64, 1);
        p.charge_store(&mut t, 64, 8);
        p.flush(&mut t, 64, 8, FlushKind::Meta);
        p.fence(&mut t);
        // Flushed after the last fence: must not appear in any image.
        p.write_u64(128, 2);
        p.charge_store(&mut t, 128, 8);
        p.flush(&mut t, 128, 8, FlushKind::Meta);
        let w = p.pmsan_window_end();
        let images = p.pmsan_window_images(&w, 16);
        assert_eq!(images.len(), 2);
        for img in images {
            let ip = PmemPool::from_crash_image(img);
            assert_eq!(ip.read_u64(128), 0, "tail flush leaked into an image");
        }
    }

    #[test]
    fn pmsan_off_accessors_are_inert() {
        let p = PmemPool::new(PmemConfig::default().pool_size(4096).latency_mode(LatencyMode::Off));
        let mut t = p.register_thread();
        p.write_u64(0, 1);
        p.fence(&mut t);
        assert!(!p.pmsan_enabled());
        assert_eq!(p.pmsan_total(), 0);
        assert!(p.pmsan_report().is_none());
        assert!(p.pmsan_line_persisted(0));
        assert_eq!(p.pmsan_audit_range(&t, 0, 4096), 0);
    }
}
