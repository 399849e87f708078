//! The virtual time model makes benchmark measurements bit-for-bit
//! reproducible: identical runs must produce identical modelled times and
//! PM counters.

use nvalloc_pmem::{LatencyMode, PmemConfig, PmemPool};
use nvalloc_workloads::allocators::Which;
use nvalloc_workloads::{shbench, threadtest};

fn pool() -> std::sync::Arc<PmemPool> {
    PmemPool::new(PmemConfig::default().pool_size(128 << 20).latency_mode(LatencyMode::Virtual))
}

#[test]
fn threadtest_is_deterministic_single_thread() {
    let run = || {
        let a = Which::NvallocLog.create(pool());
        let m = threadtest::run(
            &a,
            threadtest::Params { threads: 1, iterations: 5, objects: 200, size: 64 },
        );
        (m.ops, m.elapsed_ns, m.stats.flushes, m.stats.reflushes, m.stats.kind_ns)
    };
    assert_eq!(run(), run(), "single-threaded runs must be identical");
}

#[test]
fn seeded_workloads_are_deterministic() {
    let run = |which: Which| {
        let a = which.create(pool());
        let m = shbench::run(
            &a,
            shbench::Params { threads: 1, iterations: 2000, live_window: 32, seed: 77 },
        );
        (m.ops, m.elapsed_ns, m.stats.flushes)
    };
    for w in [Which::NvallocLog, Which::NvallocGc, Which::Pmdk, Which::Makalu] {
        assert_eq!(run(w), run(w), "{w:?}");
    }
}

/// Extent decay runs on the virtual clock, so a baseline's mapped-byte
/// trajectory under fragmentation churn is a pure function of the seed.
#[test]
fn baseline_mapped_trajectory_is_deterministic() {
    use nvalloc_workloads::fragbench;
    let run = || {
        let a = Which::Pmdk.create_with_roots(pool(), 1 << 17);
        let p = fragbench::Params { total_bytes: 24 << 20, live_cap: 4 << 20, seed: 0xDEC };
        let mut points = Vec::new();
        fragbench::run_sampled(&a, fragbench::TABLE1[2], p, 2_000, &mut |pt| {
            points.push((pt.ops, pt.ns, pt.mapped));
        });
        points
    };
    let first = run();
    let last_ns = first.last().map_or(0, |p| p.1);
    // Past several 50 ms decay ticks, so the schedule really runs.
    assert!(last_ns > 200_000_000, "run too short to decay: {last_ns} ns");
    let second = run();
    assert_eq!(first.len(), second.len());
    let diverged = first.iter().zip(&second).position(|(a, b)| a != b);
    assert_eq!(diverged, None, "same-seed runs must map the same bytes at every point");
}
