//! Sampled heap profiler: end-to-end battery.
//!
//! Covers the three profiler guarantees the design promises:
//!
//! * **Convergence** — the byte-sampled live-byte estimate tracks the
//!   exact live-byte count within the stated bound (`exact/4 + 16·period`)
//!   across random alloc/free traces (proptest);
//! * **Determinism** — the sampler uses a byte countdown, not an RNG, so
//!   same-seed runs on virtual-clock pools dump byte-identical profiles;
//! * **Crash-safe attribution** — the provenance sidelog follows the
//!   booklog flush/fence discipline, so after a crash at *any* flush
//!   prefix and recovery, every surviving sampled object re-attributes to
//!   its original site hash (swept under pmsan, gated by the doctor's
//!   strict `prof_attribution` check).

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

/// The sanitizer gate: `what` ran with zero persist-ordering violations.
fn pmsan_clean(pool: &PmemPool, what: &str) {
    assert_eq!(
        pool.pmsan_total(),
        0,
        "{what} has persist-ordering violations: {}",
        pool.pmsan_report().expect("pmsan pool").to_json()
    );
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
    assert!(j1.starts_with("{\"schema_version\":4,"), "{}", &j1[..60.min(j1.len())]);
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
// Crash-safe attribution
// ---------------------------------------------------------------------------

/// One deterministic profiled trace; period 1 samples *every* allocation,
/// so the sidelogs must account for every surviving object.
fn profiled_trace(alloc: &NvAllocator, ops: usize, seed: u64) {
    let mut t = alloc.thread();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut occupied = [false; 128];
    for _ in 0..ops {
        let slot = rng.gen_range(0..128usize);
        let root = alloc.root_offset(slot);
        if occupied[slot] {
            t.free_from(root).unwrap();
            occupied[slot] = false;
        } else {
            let size = if rng.gen_bool(0.08) {
                rng.gen_range(17 << 10..64 << 10)
            } else {
                rng.gen_range(8..2500)
            };
            if slot % 2 == 0 {
                with_site("crash_site_a", || t.malloc_to(size, root)).unwrap();
            } else {
                with_site("crash_site_b", || t.malloc_to(size, root)).unwrap();
            }
            occupied[slot] = true;
        }
    }
}

/// Crash after the trace, recover, exit cleanly, and run the doctor's
/// strict attribution audit: every surviving sampled object must name a
/// live block of the recorded size, attributed to one of the two known
/// site hashes, and the survivor count must equal the live-root count.
fn verify_attribution_after_crash(pool: Arc<PmemPool>) {
    pmsan_clean(&pool, "pre-crash profiled trace");
    let img = PmemPool::from_crash_image(pool.crash());
    let (a2, report) = NvAllocator::recover(Arc::clone(&img), NvConfig::log()).expect("recover");
    assert!(!report.normal_shutdown);
    // Count live roots *after* recovery (recovery may complete in-flight
    // frees from the WAL).
    let live_roots = (0..128usize).filter(|&s| img.read_u64(a2.root_offset(s)) != 0).count();
    a2.exit();
    let rep = nvalloc::doctor::audit_pool(&img, &NvConfig::log());
    assert!(rep.clean(), "doctor violations after recovery: {:?}", rep.violations);
    assert_eq!(rep.prof_dropped, 0, "trace too short to overflow the sidelogs");
    assert_eq!(rep.prof_stale_records, 0, "recovery must prune every stale record");
    assert_eq!(
        rep.prof_live_sampled, live_roots,
        "period 1: every surviving object must be sidelog-attributed"
    );
    let (a, b) = (site_tag("crash_site_a"), site_tag("crash_site_b"));
    for row in &rep.prof_site_table {
        assert!(
            row.site == a || row.site == b,
            "survivor attributed to unknown site {:016x}",
            row.site
        );
    }
    let attributed: u64 = rep.prof_site_table.iter().map(|r| r.live_objects).sum();
    assert_eq!(attributed as usize, live_roots);
    pmsan_clean(&img, "recovery + exit of profiled pool");
}

#[test]
fn crash_matrix_reattributes_survivors() {
    for ops in [1usize, 5, 20, 60, 150, 400] {
        let pool = PmemPool::new(
            PmemConfig::default()
                .pool_size(96 << 20)
                .latency_mode(LatencyMode::Off)
                .crash_tracking(true)
                .pmsan(true),
        );
        let alloc = NvAllocator::create(Arc::clone(&pool), NvConfig::log().profiling(1)).unwrap();
        profiled_trace(&alloc, ops, 0xA110C + ops as u64);
        verify_attribution_after_crash(pool);
    }
}

/// Sweep the power-failure point across every few individual cache-line
/// flushes of a profiled trace — including crashes landing *inside* a
/// sidelog append (data words flushed, commit word not), between an
/// append and its allocation's commit, and mid-compaction before and
/// after the half flip. At every prefix, recovery + the doctor's strict
/// audit must re-attribute every survivor.
#[test]
fn crash_swept_across_sidelog_flush_prefixes() {
    let ops = 90;
    let seed = 0x51DE;
    let total = {
        let pool = PmemPool::new(
            PmemConfig::default()
                .pool_size(96 << 20)
                .latency_mode(LatencyMode::Off)
                .crash_tracking(true)
                .pmsan(true),
        );
        let alloc = NvAllocator::create(Arc::clone(&pool), NvConfig::log().profiling(1)).unwrap();
        profiled_trace(&alloc, ops, seed);
        pool.stats().flushes()
    };
    assert!(total > 300, "trace too small ({total} flushes)");
    let step = (total / 40).max(1);
    let mut points: Vec<u64> = (0..12).collect();
    points.extend((12..total).step_by(step as usize));
    for n in points {
        let pool = PmemPool::new(
            PmemConfig::default()
                .pool_size(96 << 20)
                .latency_mode(LatencyMode::Off)
                .crash_tracking(true)
                .pmsan(true),
        );
        let alloc = NvAllocator::create(Arc::clone(&pool), NvConfig::log().profiling(1)).unwrap();
        pool.freeze_persistence_after(n);
        profiled_trace(&alloc, ops, seed);
        verify_attribution_after_crash(pool);
    }
}

/// Sidelog overflow is coverage loss, never corruption: a trace long
/// enough to fill both halves with live records drops the excess, counts
/// it, and still audits clean (the strict attribution check stands down
/// once records were dropped).
#[test]
fn sidelog_overflow_drops_and_stays_clean() {
    let pool = pool_mb(192);
    let alloc =
        NvAllocator::create(Arc::clone(&pool), NvConfig::log().roots(4096).profiling(1)).unwrap();
    let mut t = alloc.thread();
    // More live sampled objects than one arena's sidelog can hold
    // (2 × 1023 records), with no frees: compaction cannot reclaim.
    for i in 0..2200usize {
        with_site("overflow_site", || t.malloc_to(64, alloc.root_offset(i))).unwrap();
    }
    drop(t);
    alloc.quiesce();
    alloc.exit();
    let rep = nvalloc::doctor::audit_pool(&pool, &NvConfig::log().roots(4096));
    assert!(rep.clean(), "overflow must not corrupt anything: {:?}", rep.violations);
    assert!(rep.prof_dropped > 0, "trace sized to overflow the sidelog");
    assert!(rep.prof_live_sampled > 0);
    let m = alloc.metrics();
    assert_eq!(m.prof_dropped, rep.prof_dropped, "volatile and persistent drop counts agree");
    assert!(m.prof_samples >= 2200);
}
