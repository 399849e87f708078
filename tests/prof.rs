//! Sampled heap profiler: end-to-end battery.
//!
//! Covers the three profiler guarantees the design promises:
//!
//! * **Convergence** — the byte-sampled live-byte estimate tracks the
//!   exact live-byte count within the stated bound (`exact/4 + 16·period`)
//!   across random alloc/free traces (proptest);
//! * **Determinism** — the sampler uses a byte countdown, not an RNG, so
//!   same-seed runs on virtual-clock pools dump byte-identical profiles;
//! * **Observational** — the profiler is volatile: a profiled run leaves
//!   the pool, its crash image, its flush statistics, its virtual clocks
//!   and every modelled metric exactly as an unprofiled run does.

use std::sync::Arc;

use nvalloc::api::PmAllocator;
use nvalloc::prof::{site_tag, with_site};
use nvalloc::{NvAllocator, NvConfig};
use nvalloc_pmem::{LatencyMode, PmemConfig, PmemPool};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn pool_mb(mb: usize) -> Arc<PmemPool> {
    PmemPool::new(PmemConfig::default().pool_size(mb << 20).latency_mode(LatencyMode::Off))
}

// ---------------------------------------------------------------------------
// Convergence
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    // The systematic byte-countdown estimator converges on the exact
    // live-byte count: |estimate − exact| ≤ exact/4 + 16·period. The
    // slack terms cover per-object rounding to sample crossings (±period
    // each on the freed population) and the countdown residue.
    #[test]
    fn sampled_estimate_converges(
        seed in 0u64..(1 << 32),
        period in 256u64..4096,
    ) {
        let pool = pool_mb(96);
        let alloc = NvAllocator::create(
            Arc::clone(&pool),
            NvConfig::log().roots(256).profiling(period),
        )
        .unwrap();
        let mut t = alloc.thread();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut occupied = [false; 128];
        for _ in 0..400 {
            let slot = rng.gen_range(0..128usize);
            let root = alloc.root_offset(slot);
            if occupied[slot] {
                t.free_from(root).unwrap();
                occupied[slot] = false;
            } else {
                let size = if rng.gen_bool(0.05) {
                    rng.gen_range(17 << 10..64 << 10)
                } else {
                    rng.gen_range(32..6000)
                };
                t.malloc_to(size, root).unwrap();
                occupied[slot] = true;
            }
        }
        let prof = alloc.profiler().expect("profiling on");
        let est = prof.estimated_live_bytes();
        let exact = alloc.live_bytes() as u64;
        let bound = exact / 4 + 16 * period;
        let diff = est.abs_diff(exact);
        prop_assert!(
            diff <= bound,
            "estimate {est} vs exact {exact}: |diff| {diff} > bound {bound} (period {period})"
        );
    }
}

// ---------------------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------------------

/// Same-seed runs on virtual-clock pools produce byte-identical profile
/// dumps (JSON and collapsed-stack): the sampler is RNG-free and the site
/// tags come from explicit labels, not addresses.
#[test]
fn same_seed_profiles_are_byte_identical() {
    let run = || {
        let pool = PmemPool::new(
            PmemConfig::default().pool_size(96 << 20).latency_mode(LatencyMode::Virtual),
        );
        let alloc =
            NvAllocator::create(Arc::clone(&pool), NvConfig::log().roots(256).profiling(2048))
                .unwrap();
        let mut t = alloc.thread();
        let mut rng = SmallRng::seed_from_u64(0x5EED);
        let mut occupied = [false; 96];
        for _ in 0..300 {
            let slot = rng.gen_range(0..96usize);
            let root = alloc.root_offset(slot);
            if occupied[slot] {
                t.free_from(root).unwrap();
                occupied[slot] = false;
            } else {
                let size = rng.gen_range(64..4000);
                if slot % 2 == 0 {
                    with_site("det_site_even", || t.malloc_to(size, root)).unwrap();
                } else {
                    with_site("det_site_odd", || t.malloc_to(size, root)).unwrap();
                }
                occupied[slot] = true;
            }
        }
        drop(t);
        alloc.quiesce(); // marks the retained set, part of the dump
        let json = alloc.profile_json().expect("profiling on");
        let folded = alloc.profile_collapsed().expect("profiling on");
        (json, folded)
    };
    let (j1, f1) = run();
    let (j2, f2) = run();
    assert_eq!(j1, j2, "profile JSON must be byte-identical across same-seed runs");
    assert_eq!(f1, f2, "collapsed output must be byte-identical across same-seed runs");
    assert!(j1.starts_with("{\"schema_version\":5,"), "{}", &j1[..60.min(j1.len())]);
    assert!(j1.contains("det_site_even") && j1.contains("det_site_odd"), "site labels in dump");
    assert!(f1.lines().any(|l| l.starts_with("det_site_even ")), "collapsed line per site");
}

/// `quiesce()` captures the retained set: sites still holding live bytes
/// show up as leak-report rows, fully-freed sites do not.
#[test]
fn quiesce_marks_retained_sites() {
    let pool = pool_mb(96);
    let alloc =
        NvAllocator::create(Arc::clone(&pool), NvConfig::log().roots(128).profiling(1)).unwrap();
    let mut t = alloc.thread();
    for i in 0..16usize {
        with_site("leaky_site", || t.malloc_to(512, alloc.root_offset(i))).unwrap();
    }
    for i in 16..32usize {
        with_site("churn_site", || t.malloc_to(512, alloc.root_offset(i))).unwrap();
        t.free_from(alloc.root_offset(i)).unwrap();
    }
    drop(t);
    alloc.quiesce();
    let prof = alloc.profiler().expect("profiling on");
    let retained = prof.retained();
    assert!(
        retained.iter().any(|r| r.site == site_tag("leaky_site") && r.live_bytes > 0),
        "leaky site must appear in the retained set: {retained:?}"
    );
    assert!(
        !retained.iter().any(|r| r.site == site_tag("churn_site")),
        "fully-freed site must not appear: {retained:?}"
    );
    let json = alloc.profile_json().unwrap();
    assert!(json.contains("\"retained\":[{"), "retained rows serialized: {json}");
}

// ---------------------------------------------------------------------------
// Observational
// ---------------------------------------------------------------------------

/// The metrics as JSON, with the two profiler counters and the wall-clock
/// lock times zeroed: everything else is modelled and must not move.
fn modelled_metrics(alloc: &NvAllocator) -> String {
    let mut m = alloc.metrics();
    m.prof_samples = 0;
    m.prof_frees = 0;
    m.lock_wait_ns = 0;
    m.lock_hold_ns = 0;
    m.lock_wait_hist = Default::default();
    m.lock_hold_hist = Default::default();
    m.to_json()
}

/// Roots the workload uses; the rest stay empty for after recovery.
const WORK_SLOTS: usize = 1000;

fn observed_cfg(sample_bytes: u64) -> NvConfig {
    NvConfig::log().arenas(2).roots(1024).profiling(sample_bytes)
}

/// One seeded workload over two handles from this OS thread: small blocks
/// and 3 % 40 KiB extents, each freed by a randomly chosen handle, so
/// about half the frees cross arenas. Returns the pool, the allocator and
/// the handles' virtual clocks.
fn observed_run(sample_bytes: u64) -> (Arc<PmemPool>, NvAllocator, [u64; 2]) {
    let pool = PmemPool::new(
        PmemConfig::default()
            .pool_size(64 << 20)
            .latency_mode(LatencyMode::Virtual)
            .crash_tracking(true),
    );
    let alloc = NvAllocator::create(Arc::clone(&pool), observed_cfg(sample_bytes)).unwrap();
    let mut handles = [alloc.thread(), alloc.thread()];
    let mut rng = SmallRng::seed_from_u64(0x0B5E);
    let mut live = [false; WORK_SLOTS];
    for _ in 0..4000 {
        let slot = rng.gen_range(0..WORK_SLOTS);
        let h = &mut handles[rng.gen_range(0..2usize)];
        let root = alloc.root_offset(slot);
        if live[slot] {
            h.free_from(root).unwrap();
        } else {
            let size = if rng.gen_bool(0.03) { 40 << 10 } else { rng.gen_range(16..1024) };
            with_site("observed", || h.malloc_to(size, root)).unwrap();
        }
        live[slot] = !live[slot];
    }
    let clocks = [handles[0].pm().virtual_ns(), handles[1].pm().virtual_ns()];
    (pool, alloc, clocks)
}

/// Profiling is observational: a pool profiled every 256 bytes ends the
/// same seeded run with the same pool words, crash image, flush
/// statistics, virtual clocks and modelled metrics as an unprofiled one.
/// Nothing of it survives a crash: the recovered profiler starts empty
/// and samples the next allocations afresh.
#[test]
fn profiling_is_observational() {
    let (plain, plain_alloc, plain_clocks) = observed_run(0);
    let (profiled, alloc, clocks) = observed_run(256);
    let m = alloc.metrics();
    assert!(m.prof_samples > 0 && m.prof_frees > 0, "the run must sample and free samples");
    assert!(
        plain.clean_shutdown_image().words() == profiled.clean_shutdown_image().words(),
        "pool words differ"
    );
    let image = profiled.crash();
    assert!(plain.crash().words() == image.words(), "crash images differ");
    assert_eq!(plain.stats().snapshot(), profiled.stats().snapshot(), "flush statistics");
    assert_eq!(plain_clocks, clocks, "virtual clocks");
    assert_eq!(modelled_metrics(&plain_alloc), modelled_metrics(&alloc));

    let (rec, _) =
        NvAllocator::recover(PmemPool::from_crash_image(image), observed_cfg(256)).unwrap();
    let prof = rec.profiler().expect("profiling on");
    assert_eq!((prof.site_count(), prof.live_sampled()), (0, 0), "the profile starts empty");
    let mut t = rec.thread();
    for slot in WORK_SLOTS..WORK_SLOTS + 8 {
        with_site("after_recovery", || t.malloc_to(512, rec.root_offset(slot))).unwrap();
    }
    assert_eq!(prof.site_count(), 1);
    assert!(prof.live_sampled() > 0, "allocations after recovery are sampled");
    assert!(rec.metrics().prof_samples > 0);
}
