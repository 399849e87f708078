//! Flush-granular crash injection: sweep the power-failure point across
//! *every few individual cache-line flushes* of a workload and verify that
//! NVAlloc-LOG recovery holds its invariants at each point — including
//! crashes landing mid-operation, between a WAL append and the bitmap
//! update, or between the bitmap and the destination install.

use std::sync::Arc;

use nvalloc::api::PmAllocator;
use nvalloc::doctor::audit_pool;
use nvalloc::{NvAllocator, NvConfig};
use nvalloc_pmem::{FlushKind, LatencyMode, PmemConfig, PmemPool};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const TAG: u64 = 0xF1A5 << 32;

/// Run a deterministic trace with persistence frozen after `freeze`
/// flushes, then crash, recover, and validate. Returns the total number of
/// flushes the full trace issues (for sweep sizing) and the number of
/// headerless slab frames in the crash image: frames whose carve reached
/// the booklog but whose header write did not.
fn run_with_freeze(freeze: Option<u64>, ops: usize, seed: u64) -> (u64, usize) {
    let pool = PmemPool::new(
        PmemConfig::default()
            .pool_size(96 << 20)
            .latency_mode(LatencyMode::Off)
            .crash_tracking(true),
    );
    let alloc = NvAllocator::create(Arc::clone(&pool), NvConfig::log()).unwrap();
    if let Some(n) = freeze {
        pool.freeze_persistence_after(n);
    }
    {
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
                    rng.gen_range(17 << 10..96 << 10)
                } else {
                    rng.gen_range(8..2500)
                };
                let addr = t.malloc_to(size, root).unwrap();
                pool.write_u64(addr, slot as u64 | TAG);
                pool.flush(t.pm_mut(), addr, 8, FlushKind::Data);
                pool.fence(t.pm_mut());
                occupied[slot] = true;
            }
        }
    }
    let total_flushes = pool.stats().flushes();
    if freeze.is_none() {
        return (total_flushes, 0);
    }

    // Crash at the frozen point and recover.
    let img = PmemPool::from_crash_image(pool.crash());
    let headerless = audit_pool(&img, &NvConfig::log()).headerless_slabs;
    let (a2, _) = NvAllocator::recover(Arc::clone(&img), NvConfig::log())
        .unwrap_or_else(|e| panic!("freeze={freeze:?}: recover failed: {e}"));
    let mut t2 = a2.thread();

    // Invariants: every non-zero root points at an allocated block that is
    // freeable exactly once; afterwards the heap is empty and fully
    // reusable. (Payload contents may legitimately be stale — the tag
    // write's own flush can fall after the crash point — so only the
    // allocator-level invariants are asserted.)
    let mut live = 0;
    for slot in 0..128usize {
        let root = a2.root_offset(slot);
        let addr = img.read_u64(root);
        if addr == 0 {
            continue;
        }
        t2.free_from(root)
            .unwrap_or_else(|e| panic!("freeze={freeze:?} slot {slot}: free failed: {e}"));
        assert!(
            t2.free_from(root).is_err(),
            "freeze={freeze:?} slot {slot}: double free undetected"
        );
        live += 1;
    }
    assert_eq!(a2.live_bytes(), 0, "freeze={freeze:?}: {live} frees left residue");
    // Reuse the whole heap.
    for i in 0..256usize {
        t2.malloc_to(1000, a2.root_offset(i)).unwrap();
    }
    (total_flushes, headerless)
}

#[test]
fn crash_swept_across_individual_flushes() {
    let ops = 160;
    let seed = 0xF1A5;
    let (total, _) = run_with_freeze(None, ops, seed);
    assert!(total > 400, "trace too small ({total} flushes)");
    // Sweep ~60 crash points spread over the whole trace, plus the first
    // dozen flushes one by one (formatting / first-slab edge cases).
    let step = (total / 48).max(1);
    let mut points: Vec<u64> = (0..12).collect();
    points.extend((12..total).step_by(step as usize));
    let mut headerless_points = 0;
    for n in points {
        if run_with_freeze(Some(n), ops, seed).1 > 0 {
            headerless_points += 1;
        }
    }
    // Recovery must reclaim a slab frame whose carve committed to the
    // booklog before its header persisted; the sweep has to hit that
    // window for the invariants above to cover it.
    assert!(headerless_points > 0, "no crash point fell between a carve and its header write");
}

#[test]
fn crash_swept_multithreaded_coarse() {
    // Multi-threaded traces with freeze points: coarser sweep (the
    // interleaving varies run to run; invariants must hold regardless).
    for freeze in [50u64, 300, 900, 2500] {
        let pool = PmemPool::new(
            PmemConfig::default()
                .pool_size(128 << 20)
                .latency_mode(LatencyMode::Off)
                .crash_tracking(true),
        );
        let alloc = NvAllocator::create(Arc::clone(&pool), NvConfig::log().arenas(2)).unwrap();
        pool.freeze_persistence_after(freeze);
        std::thread::scope(|s| {
            for k in 0..3usize {
                let alloc = alloc.clone();
                let pool = Arc::clone(&pool);
                s.spawn(move || {
                    let mut t = alloc.thread();
                    for i in 0..120usize {
                        let root = alloc.root_offset(k * 256 + i);
                        let addr = t.malloc_to(32 + i % 700, root).unwrap();
                        pool.write_u64(addr, (k * 256 + i) as u64 | TAG);
                        pool.flush(t.pm_mut(), addr, 8, FlushKind::Data);
                        if i % 3 == 0 {
                            t.free_from(root).unwrap();
                        }
                    }
                });
            }
        });
        let img = PmemPool::from_crash_image(pool.crash());
        let (a2, _) = NvAllocator::recover(Arc::clone(&img), NvConfig::log().arenas(2))
            .unwrap_or_else(|e| panic!("freeze={freeze}: {e}"));
        let mut t2 = a2.thread();
        for slot in 0..768usize {
            let root = a2.root_offset(slot);
            if img.read_u64(root) != 0 {
                t2.free_from(root).unwrap();
                assert!(t2.free_from(root).is_err(), "slot {slot}: double free");
            }
        }
        assert_eq!(a2.live_bytes(), 0);
    }
}
