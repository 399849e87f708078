//! Telemetry-layer integration tests: histogram bucket arithmetic, JSON
//! round-trips, snapshot diffing, end-to-end metric collection through a
//! real workload, and the core invariant that telemetry is purely
//! observational — switching it off changes no modelled measurement.

use std::sync::Arc;

use nvalloc::api::PmAllocator;
use nvalloc::telemetry::{
    bucket_high, bucket_index, bucket_low, json, LatencyHistogram, MetricsSnapshot, OpKind, Probes,
    TimedMutex, HIST_BUCKETS,
};
use nvalloc::trace::EventKind;
use nvalloc::{NvAllocator, NvConfig};
use nvalloc_pmem::{LatencyMode, PmemConfig, PmemPool, TraceRing, TracerHandle};
use nvalloc_workloads::allocators::{create_custom, Which};
use nvalloc_workloads::threadtest;
use proptest::prelude::*;

fn pool() -> Arc<PmemPool> {
    PmemPool::new(PmemConfig::default().pool_size(128 << 20).latency_mode(LatencyMode::Virtual))
}

#[test]
fn every_sample_lands_in_its_bucket_bounds() {
    for shift in 0..64u32 {
        for delta in [-1i64, 0, 1] {
            let ns = (1u128 << shift) as i128 + delta as i128;
            if ns < 0 || ns > u64::MAX as i128 {
                continue;
            }
            let ns = ns as u64;
            let b = bucket_index(ns);
            assert!(b < HIST_BUCKETS);
            assert!(ns >= bucket_low(b), "{ns} below low of bucket {b}");
            if b < HIST_BUCKETS - 1 {
                assert!(ns < bucket_high(b), "{ns} at/above high of bucket {b}");
            }
        }
    }
}

#[test]
fn workload_populates_metrics_and_histograms() {
    let a = Which::NvallocLog.create(pool());
    let p = threadtest::Params { threads: 2, iterations: 4, objects: 100, size: 64 };
    let m = threadtest::run(&a, p);
    assert_eq!(m.ops, 2 * 4 * 100 * 2);
    // Every op is a small malloc or a free; one histogram sample each.
    let small = m.metrics.hists.of(OpKind::MallocSmall).count();
    let frees = m.metrics.hists.of(OpKind::Free).count();
    assert_eq!(small + frees, m.ops, "histogram samples must cover every op");
    assert_eq!(small, frees);
    assert!(m.metrics.tcache_hits > 0, "64 B churn must hit the tcache");
    assert_eq!(
        m.metrics.tcache_hits + m.metrics.tcache_misses,
        small,
        "every small malloc is a tcache hit or miss"
    );
    assert!(m.metrics.wal_appends > 0, "LOG variant logs every op");
    assert!(m.metrics.slab_allocs > 0);
    // The per-class breakdown sums back to the totals.
    let by_class: u64 = m.metrics.tcache_by_class.iter().map(|c| c.hits).sum();
    assert_eq!(by_class, m.metrics.tcache_hits);
}

#[test]
fn telemetry_off_yields_zero_metrics_and_identical_measurements() {
    // Single-threaded: multi-thread runs are interleaving-dependent, which
    // would mask whether a difference came from telemetry.
    let run = |telemetry: bool| {
        let a = create_custom(pool(), NvConfig::log().telemetry(telemetry), 1 << 19);
        let p = threadtest::Params { threads: 1, iterations: 6, objects: 150, size: 64 };
        threadtest::run(&a, p)
    };
    let on = run(true);
    let off = run(false);
    // Telemetry is observational: the modelled measurement is unchanged.
    assert_eq!(on.ops, off.ops);
    assert_eq!(on.elapsed_ns, off.elapsed_ns);
    assert_eq!(on.stats, off.stats);
    assert_eq!(on.peak_mapped, off.peak_mapped);
    // And disabling it really does silence every counter.
    assert!(on.metrics.tcache_hits > 0);
    assert_eq!(off.metrics.tcache_hits, 0);
    assert_eq!(off.metrics.wal_appends, 0);
    assert!(off.metrics.hists.of(OpKind::MallocSmall).is_empty());
}

#[test]
fn live_snapshot_sees_a_live_handle() {
    // A snapshot folds every live probe: taken while the handle is alive,
    // it equals the one taken after the handle drops, field by field.
    // Every other block stays allocated, so the drop's tcache flush
    // retires no slab and counts nothing.
    let a = NvAllocator::create(pool(), NvConfig::log().roots(2_000)).unwrap();
    let mut t = a.thread();
    for i in 0..2_000 {
        t.malloc_to(64, a.root_offset(i)).unwrap();
    }
    for i in (1..2_000).step_by(2) {
        t.free_from(a.root_offset(i)).unwrap();
    }
    let live = a.metrics();
    drop(t);
    let after = a.metrics();
    assert_eq!(live.hists.of(OpKind::MallocSmall).count(), 2_000);
    assert_eq!(live.hists.of(OpKind::Free).count(), 1_000);
    assert!(live.cursor_rotations > 0);
    assert_eq!(live, after);
}

#[test]
fn snapshot_since_isolates_a_phase() {
    let t = pool().register_thread();
    let m = Arc::new(Probes::new(true));
    let p = m.probe();
    p.event(&t, EventKind::TcacheHit, 2, 0);
    p.event(&t, EventKind::WalAppend, 0, 0);
    let before = m.snapshot();
    p.event(&t, EventKind::TcacheHit, 2, 0);
    for _ in 0..3 {
        p.event(&t, EventKind::WalAppend, 0, 0);
    }
    p.record(OpKind::Free, 250);
    let d = m.snapshot().since(&before);
    assert_eq!(d.tcache_hits, 1);
    assert_eq!(d.tcache_by_class[2].hits, 1);
    assert_eq!(d.wal_appends, 3);
    assert_eq!(d.hists.of(OpKind::Free).count(), 1);
    // Reversed diff saturates to zero instead of panicking.
    let z = before.since(&m.snapshot());
    assert_eq!(z.tcache_hits, 0);
    assert_eq!(z.wal_appends, 0);
}

#[test]
fn lock_spans_diff_without_double_counting() {
    // Regression: two lock spans recorded around a snapshot must split
    // cleanly — the diff carries only the second span, in both the
    // totals and the wait/hold histograms, and re-merging the halves
    // reproduces the full picture exactly once. A tracing thread times
    // every hold, so both spans are samples of weight 1.
    let m = TimedMutex::new((), true);
    let mut pm = pool().register_thread();
    let seq = Arc::new(std::sync::atomic::AtomicU64::new(0));
    pm.set_tracer(TracerHandle::new(Arc::new(TraceRing::new(16)), seq, 0));
    let snap = || {
        let mut s = MetricsSnapshot::default();
        m.stats().fold_into(&mut s);
        s
    };
    drop(m.timed(Some(&pm)));
    let before = snap();
    {
        let _g = m.timed(Some(&pm));
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    let after = snap();
    let d = after.since(&before);
    assert_eq!(d.lock_wait_ns, after.lock_wait_ns - before.lock_wait_ns);
    assert!(d.lock_hold_ns >= 2_000_000, "the diff holds the 2 ms span ({} ns)", d.lock_hold_ns);
    assert_eq!(d.lock_wait_hist.count(), 1, "diff holds exactly the second span");
    assert_eq!(d.lock_hold_hist.count(), 1);
    assert_eq!(d.lock_hold_hist.buckets[bucket_index(d.lock_hold_ns)], 1);
    // First half + diff = whole; no sample lost, none counted twice.
    let mut rebuilt = before.lock_wait_hist;
    rebuilt.merge(&d.lock_wait_hist);
    assert_eq!(rebuilt.buckets, after.lock_wait_hist.buckets);
    let mut rebuilt = before.lock_hold_hist;
    rebuilt.merge(&d.lock_hold_hist);
    assert_eq!(rebuilt.buckets, after.lock_hold_hist.buckets);
    // Reversed diff saturates rather than underflowing.
    let z = before.since(&after);
    assert_eq!(z.lock_wait_ns, 0);
    assert_eq!(z.lock_wait_hist.count(), 0);
}

#[test]
fn measurement_json_is_parseable_shape() {
    let a = Which::NvallocLog.create(pool());
    let p = threadtest::Params { threads: 1, iterations: 2, objects: 50, size: 64 };
    let m = threadtest::run(&a, p);
    let line = m.to_json("telemetry_test");
    assert!(!line.contains('\n'));
    assert!(line.starts_with('{') && line.ends_with('}'));
    // Balanced braces/brackets outside strings — a cheap well-formedness
    // check that catches unterminated objects and stray commas in arrays.
    let (mut depth, mut adepth, mut in_str, mut esc) = (0i64, 0i64, false, false);
    for c in line.chars() {
        if esc {
            esc = false;
            continue;
        }
        match c {
            '\\' if in_str => esc = true,
            '"' => in_str = !in_str,
            '{' if !in_str => depth += 1,
            '}' if !in_str => depth -= 1,
            '[' if !in_str => adepth += 1,
            ']' if !in_str => adepth -= 1,
            _ => {}
        }
        assert!(depth >= 0 && adepth >= 0);
    }
    assert_eq!((depth, adepth, in_str), (0, 0, false));
    for key in ["\"bench\":", "\"stats\":", "\"metrics\":", "\"hist\":", "\"malloc_small\":"] {
        assert!(line.contains(key), "missing {key} in {line}");
    }
    // The embedded metrics object leads with its schema version so a
    // consumer can dispatch before reading counters, and always carries
    // the profiler counters (zero when profiling is off).
    assert!(line.contains("{\"schema_version\":4,"), "missing schema_version in {line}");
    for key in ["\"prof_samples\":0", "\"prof_dropped\":0"] {
        assert!(line.contains(key), "missing {key} in {line}");
    }
}

/// Arbitrary text including control characters and non-BMP code points,
/// for exercising every branch of the JSON escaper.
fn text_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec(any::<u32>(), 0..48)
        .prop_map(|v| v.into_iter().filter_map(|c| char::from_u32(c % 0x11_0000)).collect())
}

proptest! {
    #[test]
    fn histogram_merge_preserves_total_counts(
        xs in proptest::collection::vec(any::<u64>(), 1..64),
        ys in proptest::collection::vec(any::<u64>(), 1..64),
    ) {
        let mut a = LatencyHistogram::default();
        for &x in &xs {
            a.record(x);
        }
        let mut b = LatencyHistogram::default();
        for &y in &ys {
            b.record(y);
        }
        let (ca, cb) = (a.count(), b.count());
        a.merge(&b);
        prop_assert_eq!(ca + cb, a.count());
        prop_assert_eq!(ca, xs.len() as u64);
        prop_assert_eq!(cb, ys.len() as u64);
    }

    #[test]
    fn json_escape_round_trips(s in text_strategy()) {
        let escaped = json::escape(&s);
        prop_assert!(!escaped.contains('\n'));
        prop_assert_eq!(json::unescape(&escaped), Some(s));
    }
}
