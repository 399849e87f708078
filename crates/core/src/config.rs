//! Allocator configuration.
//!
//! Besides selecting the consistency variant, the configuration can switch
//! each of the paper's three optimizations on or off individually, which is
//! how the Fig. 11 ablation ("Base", "+Interleaved", "+Log") and the
//! Fig. 15 "w/o SM" runs are produced.

/// Crash-consistency model (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Variant {
    /// NVAlloc-LOG: every small-allocation metadata update is covered by a
    /// write-ahead log entry and flushed; recovery replays WALs.
    /// Strongly consistent.
    #[default]
    Log,
    /// NVAlloc-GC: no metadata or WAL flushing for small allocations;
    /// recovery runs a conservative garbage collection from the root set.
    /// Weakly consistent.
    Gc,
    /// NVAlloc-IC: the *internal collection* model the paper names as
    /// future work (§4.1, after PMDK's `POBJ_FIRST`/`POBJ_NEXT`). Every
    /// allocation is persistently recorded in the slab bitmaps / booklog
    /// alone — no WAL, no destination commit — and users enumerate their
    /// objects through [`crate::NvAllocator::objects`], so references can
    /// never be lost. Strongly consistent with one metadata flush per
    /// operation.
    Internal,
}

/// Configuration for [`crate::NvAllocator`].
///
/// Start from [`NvConfig::log`], [`NvConfig::gc`], or [`NvConfig::base`]
/// and override with the builder methods:
///
/// ```
/// use nvalloc::NvConfig;
/// let cfg = NvConfig::log().stripes(8).morphing(false).arenas(2);
/// assert_eq!(cfg.stripes, 8);
/// assert!(!cfg.morphing);
/// assert_eq!(cfg.tag(), "NVAlloc-LOG");
/// ```
#[derive(Debug, Clone)]
pub struct NvConfig {
    /// Consistency variant.
    pub variant: Variant,
    /// Number of bit stripes for interleaved mappings (paper default: 6).
    pub stripes: usize,
    /// Interleave slab bitmaps.
    pub interleave_bitmap: bool,
    /// Interleave the tcache (per-stripe sub-tcaches with rotating cursor).
    pub interleave_tcache: bool,
    /// Interleave WAL and bookkeeping-log entry placement.
    pub interleave_logs: bool,
    /// Enable slab morphing.
    pub morphing: bool,
    /// Space-utilisation threshold below which a slab may morph
    /// (paper default: 0.20).
    pub su_threshold: f64,
    /// Use the log-structured bookkeeping log for extent metadata; when
    /// off, extent headers are updated in place (the Base / baseline
    /// behaviour of §3.3).
    pub log_bookkeeping: bool,
    /// Run booklog garbage collection (fast + slow).
    pub booklog_gc: bool,
    /// Log-file size threshold that triggers slow GC, as a fraction of the
    /// pool size (paper: `Usage_pmem`, 0.2 % in Fig. 17).
    pub usage_pmem: f64,
    /// Number of arenas (paper: one per CPU core).
    pub arenas: usize,
    /// Number of independent large-allocation shards (power of two).
    /// Each shard owns a contiguous sub-heap, its own region list,
    /// extent freelists, and bookkeeping-log head, so large allocs,
    /// slab carves, and slab retires from different shards never
    /// contend. `0` (the default) sizes the shard count automatically
    /// from the arena count; `1` restores the single global large
    /// allocator. The effective count is clamped so every shard keeps a
    /// workable booklog slice and heap span.
    pub large_shards: usize,
    /// Number of 8-byte root slots to reserve.
    pub roots: usize,
    /// Disable interleaving automatically when the pool is in eADR mode
    /// (the paper disables it via `pmem_has_auto_flush()`, §6.7).
    pub auto_eadr: bool,
    /// Record internal telemetry (event counters and op-latency
    /// histograms; see [`crate::telemetry`]). Recording is DRAM-side only
    /// and never perturbs the PM cost model, so it defaults to on.
    pub telemetry: bool,
    /// Record flight-recorder events (see [`crate::trace`]): per-thread
    /// lock-free ring buffers of binary events, exportable as a Chrome
    /// trace. Like telemetry, recording is DRAM-side and observational;
    /// it defaults to off because the rings cost
    /// `threads × trace_events_per_thread × 40` bytes of DRAM.
    pub trace: bool,
    /// Flight-recorder ring capacity per registered thread, in events.
    /// Oldest events are overwritten once a ring is full (surfaced by the
    /// `trace_dropped` metric).
    pub trace_events_per_thread: usize,
    /// Timeline sampler tick interval in **virtual** nanoseconds
    /// ([`crate::observe`]); `0` (the default) disables the sampler.
    /// Ticks are driven by the virtual PM clock, so sampled runs stay
    /// deterministic and crash-matrix/pmsan-compatible. Sampling is
    /// read-only (DRAM-side, no persistence calls, no clock advance).
    pub timeline_interval_ns: u64,
    /// Max samples retained by the timeline ring (oldest dropped first).
    pub timeline_capacity: usize,
    /// Heap-profiler sampling period in bytes ([`crate::prof`]); `0`
    /// (the default) disables profiling. When non-zero, roughly one
    /// allocation per `profile_sample_bytes` allocated bytes is sampled:
    /// its call site is captured into the volatile site table. Nothing
    /// is persisted, so the knob may differ between create and recover,
    /// and a recovered profile starts empty. Sampling uses a
    /// deterministic byte countdown (no RNG), keeping same-seed
    /// virtual-clock runs byte-identical.
    pub profile_sample_bytes: u64,
}

impl NvConfig {
    /// NVAlloc-LOG with all three optimizations enabled (paper defaults).
    pub fn log() -> Self {
        NvConfig {
            variant: Variant::Log,
            stripes: 6,
            interleave_bitmap: true,
            interleave_tcache: true,
            interleave_logs: true,
            morphing: true,
            su_threshold: 0.20,
            log_bookkeeping: true,
            booklog_gc: true,
            usage_pmem: 0.002,
            arenas: 4,
            large_shards: 0,
            roots: 1 << 16,
            auto_eadr: true,
            telemetry: true,
            trace: false,
            trace_events_per_thread: 4096,
            timeline_interval_ns: 0,
            timeline_capacity: 4096,
            profile_sample_bytes: 0,
        }
    }

    /// NVAlloc-GC with all optimizations enabled.
    pub fn gc() -> Self {
        NvConfig { variant: Variant::Gc, ..NvConfig::log() }
    }

    /// NVAlloc-IC (internal collection) with all optimizations enabled.
    pub fn internal() -> Self {
        NvConfig { variant: Variant::Internal, ..NvConfig::log() }
    }

    /// The "Base" configuration of Fig. 11: NVAlloc-LOG with every
    /// optimization disabled (sequential bitmaps, flat tcache, in-place
    /// extent headers, no morphing).
    pub fn base() -> Self {
        NvConfig {
            interleave_bitmap: false,
            interleave_tcache: false,
            interleave_logs: false,
            morphing: false,
            log_bookkeeping: false,
            ..NvConfig::log()
        }
    }

    /// Fig. 11 "+Interleaved": Base plus the interleaved tcache layout
    /// and bitmap mapping only.
    pub fn base_plus_interleaved() -> Self {
        NvConfig { interleave_bitmap: true, interleave_tcache: true, ..NvConfig::base() }
    }

    /// Fig. 11 "+Log": Base plus log-structured bookkeeping only.
    pub fn base_plus_log() -> Self {
        NvConfig { log_bookkeeping: true, ..NvConfig::base() }
    }

    /// Set the consistency variant.
    pub fn variant(mut self, v: Variant) -> Self {
        self.variant = v;
        self
    }

    /// Set the stripe count.
    pub fn stripes(mut self, s: usize) -> Self {
        self.stripes = s.max(1);
        self
    }

    /// Enable/disable slab morphing.
    pub fn morphing(mut self, on: bool) -> Self {
        self.morphing = on;
        self
    }

    /// Set the morphing space-utilisation threshold.
    pub fn su_threshold(mut self, su: f64) -> Self {
        self.su_threshold = su;
        self
    }

    /// Set the number of arenas.
    pub fn arenas(mut self, n: usize) -> Self {
        self.arenas = n.max(1);
        self
    }

    /// Enable/disable booklog GC.
    pub fn booklog_gc(mut self, on: bool) -> Self {
        self.booklog_gc = on;
        self
    }

    /// Set the slow-GC trigger threshold (fraction of pool size).
    pub fn usage_pmem(mut self, frac: f64) -> Self {
        self.usage_pmem = frac;
        self
    }

    /// Set the number of root slots.
    pub fn roots(mut self, n: usize) -> Self {
        self.roots = n;
        self
    }

    /// Enable/disable internal telemetry recording.
    pub fn telemetry(mut self, on: bool) -> Self {
        self.telemetry = on;
        self
    }

    /// Enable/disable the flight recorder.
    pub fn trace(mut self, on: bool) -> Self {
        self.trace = on;
        self
    }

    /// Set the timeline sampler tick interval in virtual nanoseconds
    /// ([`NvConfig::timeline_interval_ns`]; 0 disables the sampler).
    pub fn timeline(mut self, interval_ns: u64) -> Self {
        self.timeline_interval_ns = interval_ns;
        self
    }

    /// Set the timeline ring capacity in samples
    /// ([`NvConfig::timeline_capacity`]).
    pub fn timeline_capacity(mut self, n: usize) -> Self {
        self.timeline_capacity = n.max(1);
        self
    }

    /// Set the heap-profiler sampling period in bytes
    /// ([`NvConfig::profile_sample_bytes`]; 0 disables profiling).
    pub fn profiling(mut self, sample_bytes: u64) -> Self {
        self.profile_sample_bytes = sample_bytes;
        self
    }

    /// Set the flight-recorder ring capacity per thread, in events.
    pub fn trace_events_per_thread(mut self, n: usize) -> Self {
        self.trace_events_per_thread = n.max(1);
        self
    }

    /// Set the large-allocation shard count (rounded up to a power of
    /// two; 0 = auto-size from the arena count, 1 = single shard).
    pub fn large_shards(mut self, n: usize) -> Self {
        self.large_shards = n;
        self
    }

    /// Effective stripe count for a component, honouring per-component
    /// interleave toggles (1 stripe = sequential).
    pub(crate) fn stripes_for(&self, enabled: bool) -> usize {
        if enabled {
            self.stripes
        } else {
            1
        }
    }

    /// A short human-readable tag for benchmark tables.
    pub fn tag(&self) -> String {
        let v = match self.variant {
            Variant::Log => "LOG",
            Variant::Gc => "GC",
            Variant::Internal => "IC",
        };
        format!("NVAlloc-{v}")
    }
}

impl Default for NvConfig {
    fn default() -> Self {
        NvConfig::log()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ_as_documented() {
        let log = NvConfig::log();
        assert!(log.interleave_bitmap && log.log_bookkeeping && log.morphing);
        let base = NvConfig::base();
        assert!(!base.interleave_bitmap && !base.log_bookkeeping && !base.morphing);
        assert_eq!(base.variant, Variant::Log);
        let plus_i = NvConfig::base_plus_interleaved();
        assert!(plus_i.interleave_bitmap && !plus_i.log_bookkeeping);
        let plus_l = NvConfig::base_plus_log();
        assert!(!plus_l.interleave_bitmap && plus_l.log_bookkeeping);
        assert_eq!(NvConfig::gc().variant, Variant::Gc);
    }

    #[test]
    fn stripes_for_honours_toggle() {
        let c = NvConfig::log().stripes(6);
        assert_eq!(c.stripes_for(true), 6);
        assert_eq!(c.stripes_for(false), 1);
    }

    #[test]
    fn shards_default_auto() {
        // 0 = auto-size the shard count from the arena count.
        assert_eq!(NvConfig::log().large_shards, 0, "shards default to auto");
        assert_eq!(NvConfig::log().large_shards(3).large_shards, 3);
    }

    #[test]
    fn timeline_defaults_off() {
        let c = NvConfig::log();
        assert_eq!(c.timeline_interval_ns, 0, "timeline must default off");
        assert!(c.timeline_capacity > 0);
        let on = NvConfig::log().timeline(50_000).timeline_capacity(16);
        assert_eq!(on.timeline_interval_ns, 50_000);
        assert_eq!(on.timeline_capacity, 16);
        assert_eq!(NvConfig::log().timeline_capacity(0).timeline_capacity, 1);
    }

    #[test]
    fn profiling_defaults_off() {
        let c = NvConfig::log();
        assert_eq!(c.profile_sample_bytes, 0, "profiling must default off");
        let on = NvConfig::log().profiling(512 << 10);
        assert_eq!(on.profile_sample_bytes, 512 << 10);
    }

    #[test]
    fn tags() {
        assert_eq!(NvConfig::log().tag(), "NVAlloc-LOG");
        assert_eq!(NvConfig::gc().tag(), "NVAlloc-GC");
        assert_eq!(NvConfig::internal().tag(), "NVAlloc-IC");
    }
}
