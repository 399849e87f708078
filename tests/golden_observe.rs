//! Golden observability outputs: every JSON surface the allocator exports
//! — metrics, profile, Chrome trace, timeline — pinned byte for byte on
//! fixed-seed, single-OS-thread runs.
//!
//! Refactors of the instrumentation must leave these outputs unchanged.
//! The only values masked are the wall-clock ones: lock wait and hold
//! times (`lock_wait_ns`, `lock_hold_ns` and the `lock_wait`/`lock_hold`
//! histograms in the metrics; `wait_ns`, `hold_ns` and `dur` of `lock`
//! events in the Chrome traces). Small outputs are committed verbatim
//! under `tests/golden/`; the traces and the timeline are committed as
//! their byte length plus 64-bit FNV-1a hash.
//!
//! There is no bless switch. On a mismatch the test writes the actual
//! output under `target/golden_actual/` and fails, naming the file.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use nvalloc::api::{AllocThread, PmAllocator};
use nvalloc::prof::{site_tag, with_site};
use nvalloc::telemetry::MetricsSnapshot;
use nvalloc::{NvAllocator, NvConfig};
use nvalloc_pmem::{LatencyMode, PmemConfig, PmemPool};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const SLOTS: usize = 4096;
const CHURN_OPS: usize = 6_000;

fn cfg(timeline_ns: u64) -> NvConfig {
    NvConfig::log()
        .arenas(2)
        .roots(SLOTS)
        .trace(true)
        .trace_events_per_thread(1 << 16)
        .timeline(timeline_ns)
        .profiling(4096)
}

fn crash_pool() -> Arc<PmemPool> {
    PmemPool::new(
        PmemConfig::default()
            .pool_size(64 << 20)
            .latency_mode(LatencyMode::Virtual)
            .crash_tracking(true),
    )
}

/// The workload, spread over `handles` from this one OS thread. Fills
/// every root slot with a 64 B block, frees about 90 % of them (each by a
/// randomly chosen handle, so with two handles half the frees cross
/// arenas), then churns 768–1023 B blocks with 3 % 40 KiB extents. The
/// emptied 64 B slabs feed morphs, the full tcaches overflow into locked
/// frees, and the extents take large-shard locks.
fn drive(alloc: &NvAllocator, handles: &mut [Box<dyn AllocThread>]) {
    let n = handles.len();
    let mut rng = SmallRng::seed_from_u64(0x0601_DE11);
    let mut live = vec![false; SLOTS];
    for (slot, l) in live.iter_mut().enumerate() {
        with_site("golden.fill", || handles[slot % n].malloc_to(64, alloc.root_offset(slot)))
            .unwrap();
        *l = true;
    }
    for (slot, l) in live.iter_mut().enumerate() {
        if rng.gen_bool(0.9) {
            handles[rng.gen_range(0..n)].free_from(alloc.root_offset(slot)).unwrap();
            *l = false;
        }
    }
    for _ in 0..CHURN_OPS {
        let slot = rng.gen_range(0..SLOTS);
        let h = &mut handles[rng.gen_range(0..n)];
        let root = alloc.root_offset(slot);
        if live[slot] {
            h.free_from(root).unwrap();
            live[slot] = false;
        } else {
            if rng.gen_bool(0.03) {
                with_site("golden.extent", || h.malloc_to(40 << 10, root))
            } else {
                let size = rng.gen_range(768..1024);
                with_site("golden.churn", || h.malloc_to(size, root))
            }
            .unwrap();
            live[slot] = true;
        }
    }
}

/// Replace the value of every `"key":` in `json` with `0`. Values are
/// numbers or flat arrays, which is all the masked keys hold.
fn mask(json: &str, keys: &[&str]) -> String {
    let mut out = json.to_string();
    for key in keys {
        let pat = format!("\"{key}\":");
        let mut s = String::with_capacity(out.len());
        let mut rest = out.as_str();
        while let Some(i) = rest.find(&pat) {
            let (head, tail) = rest.split_at(i + pat.len());
            s.push_str(head);
            s.push('0');
            let end = if tail.starts_with('[') {
                tail.find(']').expect("closed array") + 1
            } else {
                tail.find([',', '}']).expect("value ends")
            };
            rest = &tail[end..];
        }
        s.push_str(rest);
        out = s;
    }
    out
}

fn metrics_json(m: &MetricsSnapshot) -> String {
    mask(&m.to_json(), &["lock_wait_ns", "lock_hold_ns", "lock_wait", "lock_hold"]) + "\n"
}

fn trace_json(a: &NvAllocator) -> String {
    mask(&a.trace_json().expect("trace on"), &["dur", "wait_ns", "hold_ns"])
}

/// `<byte length> <64-bit FNV-1a, hex>` of a large output.
fn digest(s: &str) -> String {
    format!("{} {:016x}\n", s.len(), site_tag(s))
}

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Compare `actual` with the committed golden `name`; on a mismatch write
/// the actual output under `target/golden_actual/` and report it.
fn check(name: &str, actual: &str, failures: &mut Vec<String>) {
    let want = std::fs::read_to_string(golden_dir().join(name))
        .unwrap_or_else(|e| panic!("missing golden file {name}: {e}"));
    if want != actual {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("target/golden_actual");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(name), actual).unwrap();
        failures.push(format!("{name}: differs; actual output in {}", dir.join(name).display()));
    }
}

/// Run A: two handles, a crash image cut while both are live, recovery.
#[test]
fn two_handle_run_with_recovery_matches_goldens() {
    let pool = crash_pool();
    let alloc = NvAllocator::create(Arc::clone(&pool), cfg(200_000)).unwrap();
    let mut handles = vec![alloc.thread(), alloc.thread()];
    drive(&alloc, &mut handles);
    let image = pool.crash();
    drop(handles);

    let m = alloc.metrics();
    // Teeth: every counter family the instrumentation moves is exercised.
    for (name, v) in [
        ("tcache_hits", m.tcache_hits),
        ("tcache_misses", m.tcache_misses),
        ("tcache_refills", m.tcache_refills),
        ("tcache_flushes", m.tcache_flushes),
        ("cursor_rotations", m.cursor_rotations),
        ("morph_completed", m.morph_completed),
        ("slab_allocs", m.slab_allocs),
        ("slab_retires", m.slab_retires),
        ("free_remote", m.free_remote),
        ("remote_drain_batches", m.remote_drain_batches),
        ("remote_drained", m.remote_drained),
        ("remote_drain_foreign", m.remote_drain_foreign),
        ("free_locks", m.free_locks),
        ("free_fast_local", m.free_fast_local),
        ("large_lock_acquires", m.large_lock_acquires),
        ("wal_appends", m.wal_appends),
        ("trace_events", m.trace_events),
        ("prof_samples", m.prof_samples),
    ] {
        assert!(v > 0, "run A must exercise {name}");
    }
    assert!(m.hists.hists.iter().take(4).all(|h| h.count() > 0), "op and morph histograms");

    let mut failures = Vec::new();
    check("run_a_metrics.json", &metrics_json(&m), &mut failures);
    check("run_a_profile.json", &(alloc.profile_json().unwrap() + "\n"), &mut failures);
    check("run_a_profile.collapsed", &alloc.profile_collapsed().unwrap(), &mut failures);
    check("run_a_trace.fnv", &digest(&trace_json(&alloc)), &mut failures);

    let (rec, report) =
        NvAllocator::recover(PmemPool::from_crash_image(image), cfg(200_000)).unwrap();
    assert!(!report.normal_shutdown);
    let rm = rec.metrics();
    assert!(rm.wal_replays > 0, "the crash image must replay WAL entries");
    check("run_a_recovered_metrics.json", &metrics_json(&rm), &mut failures);
    check("run_a_recovered_trace.fnv", &digest(&trace_json(&rec)), &mut failures);
    assert!(failures.is_empty(), "golden mismatches:\n{}", failures.join("\n"));
}

/// Run B: the same workload through a single handle, timeline pinned.
#[test]
fn single_handle_timeline_matches_golden() {
    let alloc = NvAllocator::create(crash_pool(), cfg(200_000)).unwrap();
    let mut handles = vec![alloc.thread()];
    drive(&alloc, &mut handles);
    let timeline = alloc.timeline_json().expect("timeline on");
    assert!(timeline.lines().count() > 20, "the run must tick the timeline");
    drop(handles);
    let mut failures = Vec::new();
    check("run_b_timeline.fnv", &digest(&timeline), &mut failures);
    assert!(failures.is_empty(), "golden mismatches:\n{}", failures.join("\n"));
}
