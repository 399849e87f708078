//! Heap-observatory timeline sampler: determinism, observational
//! invariance, ring bounds, and crash-safety.
//!
//! The sampler is driven by the virtual PM clock and only *reads* —
//! never persists, never counts, never advances time — so it must be
//! invisible to everything else: same-seed runs emit byte-identical
//! JSON, metrics are unchanged whether it is on or off, and a crash
//! mid-run recovers identically with or without it.

use std::sync::Arc;

use nvalloc::api::PmAllocator;
use nvalloc::telemetry::OpKind;
use nvalloc::{NvAllocator, NvConfig};
use nvalloc_pmem::{LatencyMode, PmemConfig, PmemPool};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const SLOTS: usize = 64;

/// Deterministic single-threaded malloc/free churn over root slots, on
/// the virtual clock (so the sampler actually ticks).
fn churn(alloc: &NvAllocator, ops: usize, seed: u64) {
    let mut t = alloc.thread();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut live = [false; SLOTS];
    for _ in 0..ops {
        let slot = rng.gen_range(0..SLOTS);
        let root = alloc.root_offset(slot);
        if live[slot] {
            t.free_from(root).unwrap();
            live[slot] = false;
        } else {
            let size = if rng.gen_bool(0.05) { 40 << 10 } else { rng.gen_range(16..2048) };
            t.malloc_to(size, root).unwrap();
            live[slot] = true;
        }
    }
}

fn virtual_pool(mb: usize) -> Arc<PmemPool> {
    PmemPool::new(PmemConfig::default().pool_size(mb << 20).latency_mode(LatencyMode::Virtual))
}

fn run_once(timeline_ns: u64) -> NvAllocator {
    let cfg = NvConfig::log().roots(SLOTS).timeline(timeline_ns);
    let alloc = NvAllocator::create(virtual_pool(96), cfg).unwrap();
    churn(&alloc, 6_000, 0x0B5E);
    alloc
}

#[test]
fn same_seed_runs_emit_byte_identical_timelines() {
    let a = run_once(10_000);
    let b = run_once(10_000);
    let ja = a.timeline_json().expect("sampler on");
    let jb = b.timeline_json().expect("sampler on");
    assert!(!ja.is_empty(), "virtual-clock churn must produce samples");
    assert!(ja.lines().count() > 5, "expected a real series, got {} lines", ja.lines().count());
    assert_eq!(ja, jb, "same seed, same config: timelines must be byte-identical");
    // Every line is one JSON object with the fixed leading keys; the
    // schema version tag leads so downstream parsers can dispatch on it
    // before reading anything else.
    for line in ja.lines() {
        assert!(line.starts_with("{\"schema_version\":5,\"sample\":"), "bad line shape: {line}");
        assert!(line.ends_with('}'), "bad line shape: {line}");
        assert!(line.contains("\"external_frag\":") && line.contains("\"latency\":"));
    }
}

/// Zero the wall-clock-driven telemetry (lock wait/hold profiling, the
/// large allocator's 50 ms decay timer): those differ between *any* two
/// runs; every modelled counter and histogram must be untouched by the
/// sampler.
fn normalized(mut m: nvalloc::telemetry::MetricsSnapshot) -> nvalloc::telemetry::MetricsSnapshot {
    m.lock_wait_ns = 0;
    m.lock_hold_ns = 0;
    m.lock_wait_hist = Default::default();
    m.lock_hold_hist = Default::default();
    m.decay_epochs = 0;
    m
}

#[test]
fn sampler_leaves_metrics_and_heap_untouched() {
    let on = run_once(10_000);
    let off = run_once(0);
    assert!(off.timeline_json().is_none(), "timeline(0) must disable the sampler");
    assert!(!on.timeline_samples().is_empty());
    // Observational invariance: identical telemetry and identical heap
    // footprint whether the sampler ran or not.
    assert_eq!(normalized(on.metrics()), normalized(off.metrics()));
    assert_eq!(on.heap_mapped_bytes(), off.heap_mapped_bytes());
    assert_eq!(on.live_bytes(), off.live_bytes());
}

#[test]
fn windows_count_every_live_handle() {
    // Two live handles driven from one OS thread: each tick's windows
    // fold both handles' probes, so the windows sum to every op recorded
    // before the last tick, whichever handle recorded it.
    let cfg = NvConfig::log().arenas(2).roots(SLOTS).timeline(20_000);
    let alloc = NvAllocator::create(virtual_pool(96), cfg).unwrap();
    let sampler = alloc.timeline_sampler().expect("sampler on").clone();
    let mut handles = [alloc.thread(), alloc.thread()];
    let mut rng = SmallRng::seed_from_u64(0x2_4A11);
    let mut live = [false; SLOTS];
    let (mut ops, mut ticks, mut ops_at_last_tick) = (0u64, 0u64, 0u64);
    for i in 0..4_000 {
        let slot = rng.gen_range(0..SLOTS);
        let t = &mut handles[i % 2];
        let root = alloc.root_offset(slot);
        if live[slot] {
            t.free_from(root).unwrap();
        } else {
            t.malloc_to(rng.gen_range(16..2048), root).unwrap();
        }
        live[slot] = !live[slot];
        ops += 1;
        // A tick fires at the end of an op, after its latency sample.
        let now = sampler.len() as u64 + sampler.dropped();
        if now != ticks {
            (ticks, ops_at_last_tick) = (now, ops);
        }
    }
    let samples = alloc.timeline_samples();
    assert!(samples.len() > 10 && sampler.dropped() == 0, "{} samples", samples.len());
    let counted: u64 = samples
        .iter()
        .flat_map(|s| OpKind::ALL.iter().zip(&s.window))
        .filter(|(k, _)| matches!(k, OpKind::MallocSmall | OpKind::MallocLarge | OpKind::Free))
        .map(|(_, w)| w.count)
        .sum();
    assert_eq!(counted, ops_at_last_tick, "windows must count both handles' ops");
}

#[test]
fn ring_drops_oldest_and_respects_capacity() {
    let cfg = NvConfig::log().roots(SLOTS).timeline(500).timeline_capacity(8);
    let alloc = NvAllocator::create(virtual_pool(96), cfg).unwrap();
    churn(&alloc, 6_000, 0x0B5E);
    let sampler = alloc.timeline_sampler().expect("sampler on");
    let samples = alloc.timeline_samples();
    assert!(samples.len() <= 8, "ring exceeded capacity: {}", samples.len());
    assert!(sampler.dropped() > 0, "a 500 ns tick over this run must wrap an 8-slot ring");
    // The ring keeps the *latest* window: contiguous trailing seqs.
    for w in samples.windows(2) {
        assert_eq!(w[0].seq + 1, w[1].seq);
    }
    let total = sampler.dropped() + samples.len() as u64;
    assert_eq!(samples.last().unwrap().seq, total - 1, "last sample is the newest");
}

#[test]
fn crash_mid_run_recovers_identically_with_and_without_sampler() {
    let image = |timeline_ns: u64| {
        let pool = PmemPool::new(
            PmemConfig::default()
                .pool_size(96 << 20)
                .latency_mode(LatencyMode::Virtual)
                .crash_tracking(true),
        );
        let cfg = NvConfig::log().roots(SLOTS).timeline(timeline_ns);
        let alloc = NvAllocator::create(Arc::clone(&pool), cfg).unwrap();
        churn(&alloc, 3_000, 0xDEAD);
        // No exit(): the image is whatever the crash left persisted.
        PmemPool::from_crash_image(pool.crash())
    };
    let (alloc_on, rep_on) =
        NvAllocator::recover(image(10_000), NvConfig::log().roots(SLOTS).timeline(10_000))
            .expect("recover with sampler");
    let (_, rep_off) = NvAllocator::recover(image(0), NvConfig::log().roots(SLOTS))
        .expect("recover without sampler");
    // The sampler never persists, so the two same-seed crash images —
    // one cut from a sampled run, one not — recover identically.
    assert_eq!(format!("{rep_on:?}"), format!("{rep_off:?}"));
    // And the recovered heap is fully usable, sampler and all.
    churn(&alloc_on, 2_000, 0xBEEF);
    assert!(!alloc_on.timeline_samples().is_empty(), "sampler ticks after recovery too");
}
