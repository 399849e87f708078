//! The heap observatory: deterministic time-series sampling of occupancy,
//! fragmentation, and tail latency.
//!
//! The paper's headline claims are *trajectories* — fragmentation staying
//! flat under Fragbench churn (§6), morphing kicking in as occupancy
//! decays — but counters and flight-recorder events only show aggregates
//! and instants. This module adds a config-gated timeline sampler
//! ([`crate::NvConfig::timeline`]): every time an operation completes
//! with the acting thread's **virtual PM clock** past the next
//! `k × interval` boundary, one [`TimelineSample`] is recorded into a
//! bounded ring buffer.
//!
//! # Determinism contract
//!
//! Ticks are driven exclusively by the virtual clock — never by host
//! time — so a single-threaded workload with a fixed seed produces a
//! byte-identical timeline on every run (`tests/observe.rs` asserts
//! this), and sampled runs stay compatible with the crash matrix and the
//! pmsan sanitizer. With several worker threads the boundary is claimed
//! by whichever thread's clock crosses it first, so multi-threaded
//! timelines are per-schedule, like every other cross-thread ordering.
//!
//! # Observational invariance
//!
//! Sampling is strictly read-only: gauge collection uses the uncounted
//! observer locks (never the counted [`crate::telemetry::TimedMutex`]
//! acquisitions),
//! touches no persistent memory, and never advances a virtual clock, so
//! a timeline-on run reports the same [`crate::telemetry::MetricsSnapshot`]
//! as a timeline-off run. With the timeline off the per-operation cost is
//! one `Option` branch.
//!
//! # Shared fragmentation math
//!
//! [`external_fragmentation`], [`utilization`], [`occupancy_decile`], and
//! [`heap_used_bytes`] are the *single* definitions of the heap-health
//! figures; the offline doctor ([`crate::doctor`]) and the live sampler
//! both call them, so the two can never disagree on a quiesced heap.

use std::collections::VecDeque;

use parking_lot::Mutex;

use crate::size_class::SLAB_SIZE;
use crate::sync::{AtomicU64, Ordering};
use crate::telemetry::{json, OpHistograms, OpKind};

/// Occupancy-fraction bin edges mirroring the doctor's ten-decile
/// histogram; the arena's `occupancy_histogram` over
/// these edges yields ten counts.
pub const DECILE_BINS: [f64; 9] = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9];

// ----- shared heap-health math (doctor + live sampler) -----

/// Heap bytes covered by live extents: every live slab frame plus the
/// live non-slab extent bytes.
pub fn covered_bytes(slab_frames: usize, live_large_bytes: u64) -> u64 {
    slab_frames as u64 * SLAB_SIZE as u64 + live_large_bytes
}

/// Fraction of the used heap span not covered by live extents (external
/// fragmentation; 0.0 when the heap is untouched).
pub fn external_fragmentation(heap_used_bytes: u64, covered_bytes: u64) -> f64 {
    if heap_used_bytes == 0 {
        return 0.0;
    }
    1.0 - (covered_bytes.min(heap_used_bytes) as f64 / heap_used_bytes as f64)
}

/// Live blocks over capacity (slab-internal utilisation; 1.0 when there
/// is no capacity to waste).
pub fn utilization(live_blocks: usize, capacity_blocks: usize) -> f64 {
    if capacity_blocks == 0 {
        return 1.0;
    }
    live_blocks as f64 / capacity_blocks as f64
}

/// The decile bin (`0..=9`) a slab with `live` of `nblocks` blocks falls
/// into, or `None` for a zero-capacity slab.
pub fn occupancy_decile(live: usize, nblocks: usize) -> Option<usize> {
    (live * 10).checked_div(nblocks).map(|d| d.min(9))
}

/// Heap bytes spanned by live extents: base → highest extent end (`None`
/// when no extent is live).
pub fn heap_used_bytes(max_extent_end: Option<u64>, heap_base: u64) -> u64 {
    max_extent_end.map_or(0, |end| end.saturating_sub(heap_base))
}

// ----- gauges -----

/// Point-in-time occupancy gauge for one large-allocator shard.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardGauge {
    /// Live slab-frame extents (one per slab claimed by an arena).
    pub active_slabs: usize,
    /// Live non-slab extents.
    pub active_extents: usize,
    /// Bytes of live non-slab extents.
    pub live_large_bytes: u64,
    /// Free extents parked on the reclaimed + retained lists.
    pub free_extents: usize,
    /// Mapped heap bytes (extent regions + headers).
    pub mapped_bytes: u64,
    /// Highest live extent end offset (0 when the shard is empty).
    pub max_extent_end: u64,
    /// Live bookkeeping-log entries (0 in in-place mode).
    pub booklog_live: u64,
    /// Appended entries no longer live — tombstoned, reaped, or
    /// superseded by slow-GC copies (0 in in-place mode).
    pub booklog_dead: u64,
}

/// Per-size-class slab occupancy for one arena.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassGauge {
    /// Size class index.
    pub class: usize,
    /// Slabs of this class owned by the arena.
    pub slabs: usize,
    /// Total block capacity across those slabs.
    pub capacity_blocks: usize,
    /// Blocks currently taken (volatile view).
    pub live_blocks: usize,
}

/// Point-in-time gauge for one arena.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ArenaGauge {
    /// Slabs owned by the arena.
    pub slabs: usize,
    /// Slab counts over the ten occupancy deciles (same
    /// [`occupancy_decile`] binning as the doctor's audit histogram).
    pub occupancy_hist: Vec<usize>,
    /// Per-class occupancy rows (classes with at least one slab, by
    /// ascending class index).
    pub classes: Vec<ClassGauge>,
    /// Deferred cross-arena frees queued on the remote-free queue.
    pub remote_depth: usize,
}

/// Windowed latency quantiles for one [`OpKind`]: the delta of the op
/// histogram since the previous sample, reduced by
/// [`crate::telemetry::LatencyHistogram::quantile`]. The histogram is
/// the fold of every thread's probe at the tick — live handles and
/// dropped ones alike — so the windows count every op recorded before
/// it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpWindow {
    /// Samples recorded in the window.
    pub count: u64,
    /// Median latency (ns).
    pub p50: u64,
    /// 95th percentile (ns).
    pub p95: u64,
    /// 99th percentile (ns).
    pub p99: u64,
    /// 99.9th percentile (ns).
    pub p999: u64,
}

/// One timeline tick: every gauge the observatory records at a virtual
/// clock boundary.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimelineSample {
    /// Sample index (monotone across the run, including dropped samples).
    pub seq: u64,
    /// The virtual-clock boundary this sample is stamped at
    /// (`k × interval`).
    pub ns: u64,
    /// Heap bytes spanned by live extents.
    pub heap_used_bytes: u64,
    /// Heap bytes covered by live extents.
    pub covered_bytes: u64,
    /// External fragmentation over the used span.
    pub external_frag: f64,
    /// Slab-internal utilisation (1.0 − internal fragmentation).
    pub slab_utilization: f64,
    /// Mapped heap bytes across all shards.
    pub mapped_bytes: u64,
    /// Bytes handed out and not yet freed.
    pub live_bytes: u64,
    /// Live bookkeeping-log entries across shards.
    pub booklog_live: u64,
    /// Dead bookkeeping-log entries across shards.
    pub booklog_dead: u64,
    /// Micro-WAL entries appended so far (cumulative; WAL usage).
    pub wal_appends: u64,
    /// Per-shard large-allocator gauges, in shard order.
    pub shards: Vec<ShardGauge>,
    /// Per-arena gauges, in arena order.
    pub arenas: Vec<ArenaGauge>,
    /// Windowed latency quantiles, indexed in [`OpKind::ALL`] order.
    pub window: [OpWindow; OpKind::COUNT],
}

/// Append a `u64` as decimal digits without going through `core::fmt`
/// (a sample carries a few hundred integers; the fmt machinery is ~5×
/// the cost of the digits themselves).
fn push_u64(out: &mut String, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[i..]).expect("ascii digits"));
}

/// Append a float as plain `Display` digits, `null` when non-finite
/// (the same rendering as [`json::JsonObj::field_f64`]).
fn push_f64(out: &mut String, v: f64) {
    use std::fmt::Write as _;
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

impl TimelineSample {
    /// Serialise the sample as one self-contained JSON object (single
    /// line, fixed field order, no trailing newline) — the `--timeline`
    /// JSON-lines record format. Appends to `out`: a run exports
    /// thousands of samples, so the serialiser must not allocate per
    /// field.
    pub fn write_json(&self, out: &mut String) {
        let field = |out: &mut String, key: &str, v: u64| {
            out.push_str(key);
            push_u64(out, v);
        };
        field(out, "{\"schema_version\":", crate::telemetry::SCHEMA_VERSION);
        field(out, ",\"sample\":", self.seq);
        field(out, ",\"ns\":", self.ns);
        field(out, ",\"heap_used_bytes\":", self.heap_used_bytes);
        field(out, ",\"covered_bytes\":", self.covered_bytes);
        out.push_str(",\"external_frag\":");
        push_f64(out, self.external_frag);
        out.push_str(",\"slab_utilization\":");
        push_f64(out, self.slab_utilization);
        field(out, ",\"mapped_bytes\":", self.mapped_bytes);
        field(out, ",\"live_bytes\":", self.live_bytes);
        field(out, ",\"booklog_live\":", self.booklog_live);
        field(out, ",\"booklog_dead\":", self.booklog_dead);
        field(out, ",\"wal_appends\":", self.wal_appends);
        out.push_str(",\"shards\":[");
        for (i, s) in self.shards.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            field(out, "{\"active_slabs\":", s.active_slabs as u64);
            field(out, ",\"active_extents\":", s.active_extents as u64);
            field(out, ",\"live_large_bytes\":", s.live_large_bytes);
            field(out, ",\"free_extents\":", s.free_extents as u64);
            field(out, ",\"mapped_bytes\":", s.mapped_bytes);
            field(out, ",\"booklog_live\":", s.booklog_live);
            field(out, ",\"booklog_dead\":", s.booklog_dead);
            out.push('}');
        }
        out.push_str("],\"arenas\":[");
        for (i, a) in self.arenas.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            field(out, "{\"slabs\":", a.slabs as u64);
            out.push_str(",\"occupancy_hist\":[");
            for (j, n) in a.occupancy_hist.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                push_u64(out, *n as u64);
            }
            out.push_str("],\"classes\":[");
            for (j, c) in a.classes.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                field(out, "{\"class\":", c.class as u64);
                field(out, ",\"slabs\":", c.slabs as u64);
                field(out, ",\"capacity_blocks\":", c.capacity_blocks as u64);
                field(out, ",\"live_blocks\":", c.live_blocks as u64);
                out.push('}');
            }
            field(out, "],\"remote_depth\":", a.remote_depth as u64);
            out.push('}');
        }
        out.push_str("],\"latency\":{");
        for (i, kind) in OpKind::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let w = &self.window[kind.index()];
            out.push('"');
            out.push_str(kind.label());
            field(out, "\":{\"count\":", w.count);
            field(out, ",\"p50\":", w.p50);
            field(out, ",\"p95\":", w.p95);
            field(out, ",\"p99\":", w.p99);
            field(out, ",\"p999\":", w.p999);
            out.push('}');
        }
        out.push_str("}}");
    }

    /// The [`write_json`](TimelineSample::write_json) line as an owned
    /// string.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(3072);
        self.write_json(&mut out);
        out
    }
}

// ----- the sampler -----

/// The config-gated timeline sampler: a CAS-claimed virtual-clock
/// deadline plus a bounded ring of [`TimelineSample`]s.
///
/// Created by the allocator front end when `NvConfig::timeline` is on;
/// the per-operation hot path does one relaxed [`TimelineSampler::due`]
/// check and, for the (rare) thread that crosses a boundary, a CAS claim
/// followed by gauge collection with no allocator locks held.
#[derive(Debug)]
pub struct TimelineSampler {
    interval_ns: u64,
    capacity: usize,
    /// Next virtual-clock boundary a tick is owed at.
    next_due: AtomicU64,
    inner: Mutex<SamplerInner>,
}

#[derive(Debug, Default)]
struct SamplerInner {
    ring: VecDeque<TimelineSample>,
    seq: u64,
    dropped: u64,
    /// Cumulative op histograms at the previous sample (window base).
    last_hists: OpHistograms,
}

impl TimelineSampler {
    /// Create a sampler ticking every `interval_ns` virtual nanoseconds,
    /// keeping at most `capacity` samples (drop-oldest).
    pub fn new(interval_ns: u64, capacity: usize) -> TimelineSampler {
        let interval_ns = interval_ns.max(1);
        TimelineSampler {
            interval_ns,
            capacity: capacity.max(1),
            next_due: AtomicU64::new(interval_ns),
            inner: Mutex::new(SamplerInner::default()),
        }
    }

    /// Cheap hot-path check: is a tick owed at virtual time `now_ns`?
    #[inline]
    pub fn due(&self, now_ns: u64) -> bool {
        // sched: ordering-ok(advisory pre-check; claim() re-reads under CAS)
        now_ns >= self.next_due.load(Ordering::Relaxed)
    }

    /// Try to claim the tick for the boundary crossed at `now_ns`.
    /// Exactly one thread wins per boundary; the winner gets the highest
    /// crossed `k × interval` stamp (skipping intermediate boundaries if
    /// the clock jumped several at once) and must collect + [`record`]
    /// one sample. Losers and early callers get `None`.
    ///
    /// [`record`]: TimelineSampler::record
    pub fn claim(&self, now_ns: u64) -> Option<u64> {
        // sched: ordering-ok(speculative read; the CAS revalidates it)
        let mut due = self.next_due.load(Ordering::Relaxed);
        loop {
            if now_ns < due {
                return None;
            }
            let stamp = now_ns / self.interval_ns * self.interval_ns;
            // The claim word guards no other memory: the winner records
            // into the ring under its own mutex, which provides the
            // ordering for the sample payload.
            // sched: ordering-ok(claim word publishes nothing; ring is mutex-guarded)
            match self.next_due.compare_exchange_weak(
                due,
                stamp + self.interval_ns,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Some(stamp),
                Err(d) => due = d,
            }
        }
    }

    /// Record one collected sample. `cum_hists` is the cumulative op
    /// histogram state at collection time; the sampler diffs it against
    /// the previous sample's to produce the windowed quantiles, then
    /// stores it as the next window base. Assigns the sample's `seq` and
    /// enforces the ring bound (drop-oldest).
    pub fn record(&self, mut sample: TimelineSample, cum_hists: &OpHistograms) {
        let mut inner = self.inner.lock();
        let delta = cum_hists.since(&inner.last_hists);
        inner.last_hists = *cum_hists;
        for kind in OpKind::ALL {
            let h = delta.of(kind);
            sample.window[kind.index()] = OpWindow {
                count: h.count(),
                p50: h.quantile(0.50),
                p95: h.quantile(0.95),
                p99: h.quantile(0.99),
                p999: h.quantile(0.999),
            };
        }
        sample.seq = inner.seq;
        inner.seq += 1;
        if inner.ring.len() == self.capacity {
            inner.ring.pop_front();
            inner.dropped += 1;
        }
        inner.ring.push_back(sample);
    }

    /// Samples currently resident, oldest first.
    pub fn samples(&self) -> Vec<TimelineSample> {
        self.inner.lock().ring.iter().cloned().collect()
    }

    /// Number of samples currently resident (≤ capacity).
    pub fn len(&self) -> usize {
        self.inner.lock().ring.len()
    }

    /// True when no sample has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().ring.is_empty()
    }

    /// Samples lost to drop-oldest wraparound.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().dropped
    }

    /// Every resident sample as JSON lines (one [`TimelineSample::to_json`]
    /// record per line, trailing newline) — the `--timeline` file format.
    pub fn json_lines(&self) -> String {
        let inner = self.inner.lock();
        // ~3 KiB per rendered sample on a default config; one up-front
        // allocation instead of one per sample.
        let mut out = String::with_capacity(inner.ring.len() * 3072);
        for s in &inner.ring {
            s.write_json(&mut out);
            out.push('\n');
        }
        out
    }

    /// The timeline as Chrome trace *counter* events (`"ph":"C"`),
    /// pre-rendered as JSON object strings ready to merge into the flight
    /// recorder's `traceEvents` array: fragmentation, heap size, queue
    /// depths, and booklog liveness tracks alongside the event stream.
    pub fn chrome_counter_events(&self) -> Vec<String> {
        let inner = self.inner.lock();
        let mut out = Vec::with_capacity(inner.ring.len() * 4);
        for s in &inner.ring {
            let ts = s.ns as f64 / 1000.0;
            let counter = |name: &str, args: json::JsonObj| {
                let mut o = json::JsonObj::new();
                o.field_str("name", name);
                o.field_str("cat", "timeline");
                o.field_str("ph", "C");
                o.field_f64("ts", ts);
                o.field_u64("pid", 1);
                o.field_u64("tid", 0);
                o.field_raw("args", &args.finish());
                o.finish()
            };
            let mut frag = json::JsonObj::new();
            frag.field_f64("external", s.external_frag);
            frag.field_f64("internal", 1.0 - s.slab_utilization);
            out.push(counter("fragmentation", frag));
            let mut heap = json::JsonObj::new();
            heap.field_u64("mapped", s.mapped_bytes);
            heap.field_u64("used", s.heap_used_bytes);
            heap.field_u64("live", s.live_bytes);
            out.push(counter("heap_bytes", heap));
            let mut q = json::JsonObj::new();
            q.field_u64("remote", s.arenas.iter().map(|a| a.remote_depth as u64).sum());
            q.field_u64("free_extents", s.shards.iter().map(|g| g.free_extents as u64).sum());
            out.push(counter("queues", q));
            let mut b = json::JsonObj::new();
            b.field_u64("live", s.booklog_live);
            b.field_u64("dead", s.booklog_dead);
            out.push(counter("booklog", b));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::OpKind;

    #[test]
    fn fragmentation_math_edges() {
        assert_eq!(external_fragmentation(0, 0), 0.0);
        assert_eq!(external_fragmentation(100, 100), 0.0);
        assert_eq!(external_fragmentation(200, 100), 0.5);
        // Coverage beyond the span clamps to zero fragmentation.
        assert_eq!(external_fragmentation(100, 300), 0.0);
        assert_eq!(utilization(0, 0), 1.0);
        assert_eq!(utilization(1, 4), 0.25);
        assert_eq!(occupancy_decile(0, 0), None);
        assert_eq!(occupancy_decile(0, 8), Some(0));
        assert_eq!(occupancy_decile(8, 8), Some(9), "full slab lands in the top decile");
        assert_eq!(occupancy_decile(4, 8), Some(5));
        assert_eq!(heap_used_bytes(None, 1 << 20), 0);
        assert_eq!(heap_used_bytes(Some(3 << 20), 1 << 20), 2 << 20);
        assert_eq!(covered_bytes(2, 100), 2 * SLAB_SIZE as u64 + 100);
    }

    #[test]
    fn claim_is_exactly_once_per_boundary() {
        let s = TimelineSampler::new(1000, 8);
        assert!(!s.due(999));
        assert_eq!(s.claim(999), None);
        assert!(s.due(1000));
        assert_eq!(s.claim(1000), Some(1000));
        assert_eq!(s.claim(1000), None, "boundary already claimed");
        assert_eq!(s.claim(1999), None, "still inside the claimed window");
        // A clock jump over several boundaries claims only the highest.
        assert_eq!(s.claim(5321), Some(5000));
        assert_eq!(s.claim(5999), None);
        assert_eq!(s.claim(6000), Some(6000));
    }

    #[test]
    fn ring_respects_capacity_and_counts_drops() {
        let s = TimelineSampler::new(1, 4);
        let cum = OpHistograms::default();
        for i in 0..10u64 {
            s.record(TimelineSample { ns: i, ..TimelineSample::default() }, &cum);
        }
        assert_eq!(s.len(), 4);
        assert_eq!(s.dropped(), 6);
        let got = s.samples();
        assert_eq!(got.first().unwrap().ns, 6, "oldest samples dropped first");
        assert_eq!(got.last().unwrap().seq, 9, "seq keeps counting across drops");
    }

    #[test]
    fn record_windows_are_deltas() {
        let s = TimelineSampler::new(1, 8);
        let mut cum = OpHistograms::default();
        cum.record(OpKind::MallocSmall, 100);
        cum.record(OpKind::MallocSmall, 200);
        s.record(TimelineSample::default(), &cum);
        cum.record(OpKind::Free, 50);
        s.record(TimelineSample::default(), &cum);
        let got = s.samples();
        let w0 = &got[0].window[OpKind::MallocSmall.index()];
        assert_eq!(w0.count, 2);
        assert!(w0.p50 > 0 && w0.p999 >= w0.p50);
        let w1 = &got[1].window;
        assert_eq!(w1[OpKind::MallocSmall.index()].count, 0, "second window saw no mallocs");
        assert_eq!(w1[OpKind::Free.index()].count, 1);
    }

    #[test]
    fn sample_json_is_one_line_with_fixed_shape() {
        let s = TimelineSample {
            seq: 3,
            ns: 4000,
            external_frag: 0.25,
            shards: vec![ShardGauge::default()],
            arenas: vec![ArenaGauge { occupancy_hist: vec![0; 10], ..ArenaGauge::default() }],
            ..TimelineSample::default()
        };
        let j = s.to_json();
        assert!(!j.contains('\n'));
        assert!(j.starts_with("{\"schema_version\":5,\"sample\":3,\"ns\":4000,"));
        assert!(j.contains("\"external_frag\":0.25"));
        assert!(j.contains("\"occupancy_hist\":[0,0,0,0,0,0,0,0,0,0]"));
        assert!(j.contains("\"latency\":{\"malloc_small\":{\"count\":0"));
    }

    #[test]
    fn chrome_counter_events_have_counter_phase() {
        let sampler = TimelineSampler::new(1, 4);
        sampler.record(
            TimelineSample { ns: 2000, external_frag: 0.5, ..TimelineSample::default() },
            &OpHistograms::default(),
        );
        let ev = sampler.chrome_counter_events();
        assert_eq!(ev.len(), 4, "four counter tracks per sample");
        for e in &ev {
            assert!(e.contains("\"ph\":\"C\""), "{e}");
            assert!(e.contains("\"ts\":2"), "{e}");
        }
        assert!(ev[0].contains("\"external\":0.5"));
    }
}
