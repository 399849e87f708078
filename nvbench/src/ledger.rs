//! Metric printing and the per-layer ledger of the traced run.

use std::fmt::Write as _;
use std::io::Write as _;
use std::sync::Arc;
use std::time::Instant;

use nvalloc::RecoveryReport;
use nvalloc_pmem::{FlushKind, PmemConfig, PmemPool};

use crate::gen::{Route, Trace, Workload, ROUTES};
use crate::replay::{Round, Span};

/// Nearest-rank quantile of sorted samples (0 when there are none).
pub fn quantile(sorted: &[u32], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    samples: u64,
}

/// Named metrics in print order.
#[derive(Default)]
pub struct Metrics(Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str, samples: u64) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push(Metric { name: name.into(), value, unit, samples });
    }

    pub fn print(&self) {
        let w = self.0.iter().map(|m| m.name.len()).max().unwrap_or(0);
        for m in &self.0 {
            println!("  {:<w$}  {:>14.4} {:<7} n={}", m.name, m.value, m.unit, m.samples);
        }
    }

    /// The result line: every metric with its unit and sample count.
    pub fn json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut s = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, m) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\", \"samples\": {}}}",
                m.name, m.value, m.unit, m.samples
            );
        }
        s.push_str("}}");
        s
    }
}

/// A root span of the traced run outside the replay (`recover`,
/// `audit_pool`); host ns since the gate's recovery started.
pub struct RootSpan {
    pub name: &'static str,
    pub host: (u64, u64),
}

/// Host ns per public `flush`+`fence` pair on a fresh pool, with
/// `threads` threads (one per core) each persisting its own lines. Median
/// of 5 passes.
pub fn flush_fence_host_ns(threads: usize) -> f64 {
    const PAIRS: u64 = 100_000;
    let pool = PmemPool::new(PmemConfig::default().pool_size(4 << 20));
    let mut passes: Vec<f64> = (0..5)
        .map(|_| {
            let per_thread: Vec<f64> = std::thread::scope(|s| {
                let hs: Vec<_> = (0..threads)
                    .map(|k| {
                        let pool = Arc::clone(&pool);
                        s.spawn(move || {
                            crate::replay::pin_to_cpu(k);
                            let mut t = pool.register_thread();
                            let base = (k as u64) << 21;
                            let start = Instant::now();
                            for i in 0..PAIRS {
                                let off = base + (i % 4096) * 64;
                                pool.write_u64(off, i);
                                pool.flush(&mut t, off, 8, FlushKind::Meta);
                                pool.fence(&mut t);
                            }
                            start.elapsed().as_nanos() as f64 / PAIRS as f64
                        })
                    })
                    .collect();
                hs.into_iter().map(|h| h.join().unwrap()).collect()
            });
            per_thread.iter().sum::<f64>() / threads as f64
        })
        .collect();
    passes.sort_by(f64::total_cmp);
    passes[passes.len() / 2]
}

/// Host ns/op ratios of the instrumentation arms (fastest of `reps` each).
pub struct Overheads {
    pub telemetry: f64,
    pub all_on: f64,
    pub trace: f64,
    pub reps: u64,
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

fn durations(spans: &[&Span]) -> (Vec<u32>, Vec<u32>) {
    let mut host: Vec<u32> = spans.iter().map(|s| (s.host.1 - s.host.0) as u32).collect();
    let mut pm: Vec<u32> = spans.iter().map(|s| (s.pm.1 - s.pm.0) as u32).collect();
    host.sort_unstable();
    pm.sort_unstable();
    (host, pm)
}

/// The per-layer ledger, from one traced round plus the gate and the
/// calibration loops. Counter ratios use the round's ops as their base.
pub fn per_layer(
    w: Workload,
    trace: &Trace,
    r: &Round,
    rec: &RecoveryReport,
    audit_ms: f64,
    flush_fence: [f64; 2],
    o: Overheads,
) -> Metrics {
    let mut m = Metrics::default();
    let ops = r.ops();
    let per_op = |x: u64| ratio(x, ops);
    let per_kop = |x: u64| ratio(x * 1000, ops);
    let s = &r.stats;
    let fence_ns = s.fences * nvalloc_pmem::ModelParams::default().fence_ns;

    m.push("pmem.flushes_per_op", per_op(s.flushes), "1/op", ops);
    m.push("pmem.fences_per_op", per_op(s.fences), "1/op", ops);
    m.push("pmem.reflush_ratio", ratio(s.reflushes, s.flushes), "ratio", s.flushes);
    m.push(
        "pmem.rand_write_ratio",
        ratio(s.rand_writes, s.seq_writes + s.rand_writes),
        "ratio",
        s.flushes,
    );
    m.push("pmem.xpbuf_misses_per_op", per_op(s.xpbuf_misses), "1/op", ops);
    for (k, name) in [
        (FlushKind::Meta, "pmem.meta_ns_per_op"),
        (FlushKind::Wal, "pmem.wal_ns_per_op"),
        (FlushKind::BookLog, "pmem.booklog_ns_per_op"),
        (FlushKind::Data, "pmem.data_ns_per_op"),
    ] {
        m.push(name, per_op(s.ns_of(k)), "ns", ops);
    }
    m.push("pmem.fence_ns_per_op", per_op(fence_ns), "ns", ops);
    let attributed = s.kind_ns.iter().sum::<u64>() + fence_ns;
    let residual = r.virtual_ns() as f64 - attributed as f64;
    m.push("pmem.unattributed_ns_per_op", residual / ops as f64, "ns", ops);
    m.push("pmem.flush_fence_host_ns_1t", flush_fence[0], "ns", 5);
    m.push("pmem.flush_fence_host_ns_2t", flush_fence[1], "ns", 5);

    let spans: Vec<&Span> = r.sinks.iter().flat_map(|s| &s.spans).collect();
    for route in ROUTES {
        let mine: Vec<&Span> = spans.iter().copied().filter(|s| s.route == route).collect();
        let (host, pm) = durations(&mine);
        let n = mine.len() as u64;
        let p = format!("front.{}", route.name());
        m.push(format!("{p}.share"), ratio(n, ops), "ratio", n);
        m.push(format!("{p}.host_p50_ns"), quantile(&host, 0.50), "ns", n);
        m.push(format!("{p}.host_p99_ns"), quantile(&host, 0.99), "ns", n);
        m.push(format!("{p}.pm_p50_ns"), quantile(&pm, 0.50), "ns", n);
        m.push(format!("{p}.pm_p99_ns"), quantile(&pm, 0.99), "ns", n);
    }

    let c = &r.metrics;
    m.push(
        "tcache.hit_ratio",
        ratio(c.tcache_hits, c.tcache_hits + c.tcache_misses),
        "ratio",
        c.tcache_hits + c.tcache_misses,
    );
    m.push("tcache.refills_per_kop", per_kop(c.tcache_refills), "1/kop", ops);
    m.push("tcache.flushes_per_kop", per_kop(c.tcache_flushes), "1/kop", ops);

    let frees = trace.route_ops[Route::FreeSmallLocal as usize]
        + trace.route_ops[Route::FreeSmallRemote as usize]
        + trace.route_ops[Route::FreeLarge as usize];
    let small_frees = frees - trace.route_ops[Route::FreeLarge as usize];
    m.push("arena.lock_wait_ns_per_op", per_op(c.lock_wait_ns), "ns", ops);
    m.push("arena.lock_hold_ns_per_op", per_op(c.lock_hold_ns), "ns", ops);
    m.push("arena.free_locked_frac", ratio(c.free_locks, frees), "ratio", frees);
    let carves = c.reservoir_hits + c.reservoir_misses;
    m.push("arena.reservoir_hit_ratio", ratio(c.reservoir_hits, carves), "ratio", carves);
    m.push("arena.slab_allocs_per_kop", per_kop(c.slab_allocs), "1/kop", ops);
    m.push("arena.slab_retires_per_kop", per_kop(c.slab_retires), "1/kop", ops);

    m.push("remote.free_remote_frac", ratio(c.free_remote, small_frees), "ratio", small_frees);
    m.push(
        "remote.drained_per_batch",
        ratio(c.remote_drained, c.remote_drain_batches),
        "count",
        c.remote_drain_batches,
    );
    m.push("remote.drain_foreign_per_kop", per_kop(c.remote_drain_foreign), "1/kop", ops);

    m.push("morph.started", c.morph_started as f64, "count", 1);
    m.push("morph.completed", c.morph_completed as f64, "count", 1);
    m.push("morph.undone", rec.morphs_resolved as f64, "count", 1);
    m.push("wal.appends_per_op", per_op(c.wal_appends), "1/op", ops);
    m.push("booklog.appends_per_op", per_op(c.booklog_appends), "1/op", ops);
    m.push("booklog.fast_gc_reaps_per_kop", per_kop(c.booklog_fast_gc_reaps), "1/kop", ops);
    m.push("booklog.slow_gc_copied_per_kop", per_kop(c.booklog_slow_gc_copied), "1/kop", ops);
    m.push("booklog.alt_flips", c.booklog_alt_flips as f64, "count", 1);
    m.push("large.extent_splits_per_kop", per_kop(c.extent_splits), "1/kop", ops);
    m.push("large.extent_coalesces_per_kop", per_kop(c.extent_coalesces), "1/kop", ops);
    m.push(
        "large.lock_contended_frac",
        ratio(c.large_lock_contended, c.large_lock_acquires),
        "ratio",
        c.large_lock_acquires,
    );
    m.push("large.decay_epochs", c.decay_epochs as f64, "count", 1);
    m.push("recovery.wal_replays", rec.wal_replayed as f64, "count", 1);
    m.push("doctor.audit_ms", audit_ms, "ms", 1);

    // The shim's spans are the `nv_*` calls; other workloads never enter it.
    for (name, free) in [("global.nv_malloc", false), ("global.nv_free", true)] {
        let mine: Vec<&Span> = if w == Workload::ShimChurn {
            spans
                .iter()
                .copied()
                .filter(|s| (s.route as usize >= Route::FreeSmallLocal as usize) == free)
                .collect()
        } else {
            Vec::new()
        };
        let (host, _) = durations(&mine);
        m.push(format!("{name}.host_p50_ns"), quantile(&host, 0.50), "ns", host.len() as u64);
        m.push(format!("{name}.host_p99_ns"), quantile(&host, 0.99), "ns", host.len() as u64);
    }

    m.push("telemetry.overhead", o.telemetry, "ratio", o.reps);
    m.push("observe.all_on_overhead", o.all_on, "ratio", o.reps);
    m.push("bench.trace_overhead", o.trace, "ratio", o.reps);

    if w == Workload::RemotePair {
        let share = ratio(trace.route_ops[Route::FreeSmallRemote as usize], small_frees);
        println!(
            "remote: {} of {} small frees pushed to a remote queue ({:.4}); the trace hands off {:.4}",
            c.free_remote,
            small_frees,
            ratio(c.free_remote, small_frees),
            share
        );
    }
    println!(
        "attribution: workers' clocks {} ns, attributed {} ns (flush kinds + {} fences), residual {} ns",
        r.virtual_ns(),
        attributed,
        s.fences,
        residual
    );
    m
}

/// Write the traced round's spans once, at the end, as CSV: one row per
/// op plus the root spans of recovery and the audit. Self time equals
/// duration: no span here has children.
pub fn write_spans(path: &str, r: &Round, roots: &[RootSpan]) -> std::io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "name,worker,op,host_start_ns,host_end_ns,pm_start_ns,pm_end_ns,self_host_ns")?;
    for s in r.sinks.iter().flat_map(|s| &s.spans) {
        writeln!(
            f,
            "{},{},{},{},{},{},{},{}",
            s.route.name(),
            s.worker,
            s.op,
            s.host.0,
            s.host.1,
            s.pm.0,
            s.pm.1,
            s.host.1 - s.host.0
        )?;
    }
    for root in roots {
        writeln!(
            f,
            "{},,,{},{},,,{}",
            root.name,
            root.host.0,
            root.host.1,
            root.host.1 - root.host.0
        )?;
    }
    f.flush()
}
