//! Crash-injection matrix: run a deterministic trace on a crash-tracked
//! pool, crash after every N operations, recover, and verify the LOG
//! variant's guarantees — committed state intact, no double-allocation,
//! heap fully reusable.
//!
//! Every pool here also runs the persist-ordering sanitizer
//! ([`nvalloc_pmem::pmsan`]): both the pre-crash trace and the recovery
//! pass must be violation-free, so any ordering regression in the
//! allocator's persistence paths fails this matrix even when the
//! resulting image happens to recover correctly.

use std::collections::HashMap;
use std::sync::Arc;

use nvalloc::api::PmAllocator;
use nvalloc::{NvAllocator, NvConfig};
use nvalloc_pmem::{LatencyMode, PmemConfig, PmemPool};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn run_until_crash(ops: usize, seed: u64) -> (Arc<PmemPool>, HashMap<usize, (u64, usize)>) {
    let pool = PmemPool::new(
        PmemConfig::default()
            .pool_size(96 << 20)
            .latency_mode(LatencyMode::Off)
            .crash_tracking(true)
            .pmsan(true),
    );
    let alloc = NvAllocator::create(Arc::clone(&pool), NvConfig::log()).unwrap();
    let mut t = alloc.thread();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut live: HashMap<usize, (u64, usize)> = HashMap::new();
    for _ in 0..ops {
        let slot = rng.gen_range(0..128usize);
        let root = alloc.root_offset(slot);
        if let std::collections::hash_map::Entry::Vacant(e) = live.entry(slot) {
            let size = if rng.gen_bool(0.1) {
                rng.gen_range(17 << 10..128 << 10)
            } else {
                rng.gen_range(8..3000)
            };
            let addr = t.malloc_to(size, root).unwrap();
            pool.write_u64(addr, slot as u64 | 0xCAFE << 32);
            pool.flush(t.pm_mut(), addr, 8, nvalloc_pmem::FlushKind::Data);
            pool.fence(t.pm_mut());
            e.insert((addr, size));
        } else {
            t.free_from(root).unwrap();
            live.remove(&slot);
        }
    }
    (pool, live)
}

/// Run the offline doctor over a freshly recovered image: recovery must
/// leave every persistent structure in a state the auditor calls clean.
fn audit_clean(img: &PmemPool, cfg: &NvConfig) {
    let rep = nvalloc::doctor::audit_pool(img, cfg);
    assert!(rep.clean(), "doctor violations after recovery: {:?}", rep.violations);
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

fn verify_recovery(pool: Arc<PmemPool>, live: &HashMap<usize, (u64, usize)>) {
    pmsan_clean(&pool, "pre-crash trace");
    let img = PmemPool::from_crash_image(pool.crash());
    let (alloc, report) = NvAllocator::recover(Arc::clone(&img), NvConfig::log()).expect("recover");
    assert!(!report.normal_shutdown);
    audit_clean(&img, &NvConfig::log());
    let mut t = alloc.thread();
    // Every committed allocation survives with its payload.
    for (&slot, &(addr, _)) in live {
        assert_eq!(img.read_u64(alloc.root_offset(slot)), addr, "root {slot}");
        assert_eq!(img.read_u64(addr), slot as u64 | 0xCAFE << 32, "payload {slot}");
    }
    // Everything can be freed exactly once, then re-allocated heavily
    // (catches double-allocation of leaked space).
    for &slot in live.keys() {
        t.free_from(alloc.root_offset(slot)).unwrap();
        assert!(t.free_from(alloc.root_offset(slot)).is_err());
    }
    assert_eq!(alloc.live_bytes(), 0);
    let mut addrs = Vec::new();
    for i in 0..512usize {
        let root = alloc.root_offset(i);
        let a = t.malloc_to(1500, root).unwrap();
        img.write_u64(a, i as u64);
        addrs.push(a);
    }
    for (i, a) in addrs.iter().enumerate() {
        assert_eq!(img.read_u64(*a), i as u64, "post-recovery block {i} clobbered");
    }
    pmsan_clean(&img, "recovery + post-recovery churn");
}

#[test]
fn crash_at_many_points() {
    // Crash after progressively longer traces; each recovery must hold
    // every invariant.
    for ops in [1, 3, 10, 33, 100, 333, 1000] {
        let (pool, live) = run_until_crash(ops, 0xC0 + ops as u64);
        verify_recovery(pool, &live);
    }
}

#[test]
fn crash_with_multithreaded_history() {
    let pool = PmemPool::new(
        PmemConfig::default()
            .pool_size(128 << 20)
            .latency_mode(LatencyMode::Off)
            .crash_tracking(true)
            .pmsan(true),
    );
    let alloc = NvAllocator::create(Arc::clone(&pool), NvConfig::log().arenas(2)).unwrap();
    let live: Vec<(usize, u64)> = std::thread::scope(|s| {
        (0..4usize)
            .map(|k| {
                let alloc = alloc.clone();
                let pool = Arc::clone(&pool);
                s.spawn(move || {
                    let mut t = alloc.thread();
                    let mut mine = Vec::new();
                    for i in 0..200usize {
                        let slot = k * 256 + i;
                        let root = alloc.root_offset(slot);
                        let addr = t.malloc_to(64 + i % 900, root).unwrap();
                        pool.write_u64(addr, slot as u64);
                        pool.flush(t.pm_mut(), addr, 8, nvalloc_pmem::FlushKind::Data);
                        if i % 3 == 0 {
                            t.free_from(root).unwrap();
                        } else {
                            mine.push((slot, addr));
                        }
                    }
                    pool.fence(t.pm_mut());
                    mine
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    pmsan_clean(&pool, "multithreaded trace");
    let img = PmemPool::from_crash_image(pool.crash());
    let (alloc2, _) = NvAllocator::recover(Arc::clone(&img), NvConfig::log().arenas(2)).unwrap();
    let mut t = alloc2.thread();
    for (slot, addr) in live {
        assert_eq!(img.read_u64(alloc2.root_offset(slot)), addr);
        assert_eq!(img.read_u64(addr), slot as u64);
        t.free_from(alloc2.root_offset(slot)).unwrap();
    }
    pmsan_clean(&img, "recovery after multithreaded crash");
}

#[test]
fn repeated_crash_recover_cycles() {
    // Crash → recover → work → crash → recover …: state stays sound.
    let mut image = {
        let pool = PmemPool::new(
            PmemConfig::default()
                .pool_size(96 << 20)
                .latency_mode(LatencyMode::Off)
                .crash_tracking(true)
                .pmsan(true),
        );
        let alloc = NvAllocator::create(Arc::clone(&pool), NvConfig::log()).unwrap();
        let mut t = alloc.thread();
        t.malloc_to(100, alloc.root_offset(0)).unwrap();
        pool.crash()
    };
    for round in 0..5 {
        let pool = PmemPool::from_crash_image(image);
        let (alloc, _) = NvAllocator::recover(Arc::clone(&pool), NvConfig::log())
            .unwrap_or_else(|e| panic!("round {round}: {e}"));
        let mut t = alloc.thread();
        // Slot 0 survives every cycle; add one more object per round.
        assert_ne!(pool.read_u64(alloc.root_offset(0)), 0, "round {round}");
        t.malloc_to(200 + round * 10, alloc.root_offset(round + 1)).unwrap();
        image = pool.crash();
    }
}

#[test]
fn gc_variant_multithreaded_crash() {
    use nvalloc_pmem::FlushKind;
    let pool = PmemPool::new(
        PmemConfig::default()
            .pool_size(128 << 20)
            .latency_mode(LatencyMode::Off)
            .crash_tracking(true)
            .pmsan(true),
    );
    let alloc = NvAllocator::create(Arc::clone(&pool), NvConfig::gc().arenas(2)).unwrap();
    let live: Vec<(usize, u64)> = std::thread::scope(|s| {
        (0..4usize)
            .map(|k| {
                let alloc = alloc.clone();
                let pool = Arc::clone(&pool);
                s.spawn(move || {
                    let mut t = alloc.thread();
                    let mut mine = Vec::new();
                    for i in 0..150usize {
                        let slot = k * 200 + i;
                        let root = alloc.root_offset(slot);
                        let addr = t.malloc_to(48 + i % 700, root).unwrap();
                        // GC-model contract: the app persists roots and data.
                        pool.flush(t.pm_mut(), root, 8, FlushKind::Data);
                        pool.write_u64(addr, slot as u64);
                        pool.flush(t.pm_mut(), addr, 8, FlushKind::Data);
                        if i % 3 == 0 {
                            pool.write_u64(root, 0);
                            pool.flush(t.pm_mut(), root, 8, FlushKind::Data);
                        } else {
                            mine.push((slot, addr));
                        }
                        // Order each op: without the fence, the next op's
                        // root store lands on a flushed-pending line
                        // (store_unfenced). The crash image is identical
                        // either way — the shadow is flush-driven — so
                        // this only tightens the app's ordering to what
                        // the sanitizer (rightly) demands.
                        pool.fence(t.pm_mut());
                    }
                    mine
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    pmsan_clean(&pool, "gc-variant trace");
    let img = PmemPool::from_crash_image(pool.crash());
    let (alloc2, report) =
        NvAllocator::recover(Arc::clone(&img), NvConfig::gc().arenas(2)).unwrap();
    assert!(report.gc_live_blocks >= live.len());
    let mut t = alloc2.thread();
    for (slot, addr) in live {
        assert_eq!(img.read_u64(alloc2.root_offset(slot)), addr);
        assert_eq!(img.read_u64(addr), slot as u64);
        t.free_from(alloc2.root_offset(slot)).unwrap();
    }
    pmsan_clean(&img, "gc-variant recovery");
}

/// One step of the cross-shard large-allocation trace. `th` selects one
/// of four allocator threads, each pinned (by least-loaded assignment at
/// creation) to a distinct arena — so each has a distinct preferred large
/// shard, and frees route by address to whichever shard owns the extent,
/// regardless of the freeing thread.
#[derive(Clone, Copy)]
enum LOp {
    A { th: usize, slot: usize, size: usize },
    F { th: usize, slot: usize },
}

/// Deterministic interleaving of large allocs/frees across 4 threads,
/// including cross-thread (and therefore cross-shard) frees.
fn sharded_trace() -> Vec<LOp> {
    use LOp::{A, F};
    vec![
        A { th: 0, slot: 0, size: 18 << 10 },
        A { th: 1, slot: 1, size: 33 << 10 },
        A { th: 2, slot: 2, size: 70 << 10 },
        A { th: 3, slot: 3, size: 25 << 10 },
        A { th: 0, slot: 4, size: 48 << 10 },
        F { th: 1, slot: 1 },
        A { th: 1, slot: 5, size: 90 << 10 },
        F { th: 3, slot: 0 }, // cross-shard: t3 frees t0's extent
        A { th: 2, slot: 6, size: 21 << 10 },
        A { th: 3, slot: 7, size: 60 << 10 },
        F { th: 0, slot: 2 }, // cross-shard: t0 frees t2's extent
        F { th: 2, slot: 3 }, // cross-shard: t2 frees t3's extent
        A { th: 0, slot: 8, size: 40 << 10 },
        A { th: 1, slot: 9, size: 17 << 10 },
        F { th: 1, slot: 4 },
        F { th: 0, slot: 5 },
        A { th: 2, slot: 10, size: 80 << 10 },
        F { th: 3, slot: 6 },
        F { th: 2, slot: 9 },
        A { th: 3, slot: 11, size: 28 << 10 },
    ]
}

/// Run the first `steps` ops of the cross-shard trace under `cfg`, then
/// crash. Returns the crash image and the model of committed live slots.
fn run_sharded_prefix(
    cfg: NvConfig,
    gc_contract: bool,
    steps: usize,
) -> (Arc<PmemPool>, HashMap<usize, (u64, usize)>) {
    use nvalloc_pmem::FlushKind;
    let pool = PmemPool::new(
        PmemConfig::default()
            .pool_size(128 << 20)
            .latency_mode(LatencyMode::Off)
            .crash_tracking(true)
            .pmsan(true),
    );
    let alloc = NvAllocator::create(Arc::clone(&pool), cfg).unwrap();
    assert!(alloc.large_shards() >= 4, "need >= 4 shards, got {}", alloc.large_shards());
    let mut ts: Vec<_> = (0..4).map(|_| alloc.thread()).collect();
    let mut live: HashMap<usize, (u64, usize)> = HashMap::new();
    for op in sharded_trace().into_iter().take(steps) {
        match op {
            LOp::A { th, slot, size } => {
                let root = alloc.root_offset(slot);
                let addr = ts[th].malloc_to(size, root).unwrap();
                // No app-side root flush even under the GC contract:
                // large allocations use the WAL in both variants, so the
                // allocator persists the destination itself as the WAL
                // commit record — an app re-flush would be redundant
                // (and the sanitizer flags it as such).
                pool.write_u64(addr, slot as u64 | 0xD0D0 << 32);
                pool.flush(ts[th].pm_mut(), addr, 8, FlushKind::Data);
                pool.fence(ts[th].pm_mut());
                live.insert(slot, (addr, size));
            }
            LOp::F { th, slot } => {
                let root = alloc.root_offset(slot);
                if gc_contract {
                    // GC model: drop the reference; recovery collects it.
                    pool.write_u64(root, 0);
                    pool.flush(ts[th].pm_mut(), root, 8, FlushKind::Data);
                    pool.fence(ts[th].pm_mut());
                } else {
                    ts[th].free_from(root).unwrap();
                }
                live.remove(&slot);
            }
        }
    }
    (pool, live)
}

/// Recover a crashed cross-shard image and assert the shard invariants:
/// committed extents survive with payloads, no extent is double-owned
/// (live ranges are disjoint), none is lost (every live slot enumerable,
/// everything frees exactly once, space is fully reusable).
fn verify_sharded_recovery(
    pool: Arc<PmemPool>,
    cfg: NvConfig,
    live: &HashMap<usize, (u64, usize)>,
) {
    pmsan_clean(&pool, "sharded trace");
    let img = PmemPool::from_crash_image(pool.crash());
    let (alloc, report) = NvAllocator::recover(Arc::clone(&img), cfg.clone()).expect("recover");
    assert!(!report.normal_shutdown);
    assert!(alloc.large_shards() >= 4);
    audit_clean(&img, &cfg);
    for (&slot, &(addr, _)) in live {
        assert_eq!(img.read_u64(alloc.root_offset(slot)), addr, "root {slot}");
        assert_eq!(img.read_u64(addr), slot as u64 | 0xD0D0 << 32, "payload {slot}");
    }
    // No double-ownership across shards: every live range is disjoint.
    let mut objs = alloc.objects();
    objs.sort_unstable();
    for w in objs.windows(2) {
        assert!(
            w[0].0 + w[0].1 as u64 <= w[1].0,
            "extent double-owned: {:#x}+{} overlaps {:#x}",
            w[0].0,
            w[0].1,
            w[1].0
        );
    }
    // No extent lost: every committed allocation is enumerable at (at
    // least) its requested size.
    for (&slot, &(addr, size)) in live {
        assert!(
            objs.iter().any(|&(o, s)| o == addr && s >= size),
            "extent of slot {slot} lost ({addr:#x}, {size})"
        );
    }
    // Everything frees exactly once, and the space is reusable.
    let mut t = alloc.thread();
    for &slot in live.keys() {
        t.free_from(alloc.root_offset(slot)).unwrap();
        assert!(t.free_from(alloc.root_offset(slot)).is_err(), "double free of {slot}");
    }
    assert_eq!(alloc.live_bytes(), 0);
    for i in 0..24usize {
        t.malloc_to(48 << 10, alloc.root_offset(300 + i)).unwrap();
    }
    pmsan_clean(&img, "sharded recovery + reuse churn");
}

#[test]
fn sharded_large_crash_matrix_log() {
    let len = sharded_trace().len();
    for steps in 0..=len {
        let cfg = || NvConfig::log().arenas(4);
        let (pool, live) = run_sharded_prefix(cfg(), false, steps);
        verify_sharded_recovery(pool, cfg(), &live);
    }
}

#[test]
fn sharded_large_crash_matrix_gc() {
    let len = sharded_trace().len();
    for steps in 0..=len {
        let cfg = || NvConfig::gc().arenas(4);
        let (pool, live) = run_sharded_prefix(cfg(), true, steps);
        verify_sharded_recovery(pool, cfg(), &live);
    }
}

#[test]
fn crash_during_recovery_is_recoverable() {
    // §4.4: "If the recovery process finds the flag is running or
    // recovery, it indicates a failure has occurred during running or
    // recovery" — a second recovery must succeed from that state.
    let pool = PmemPool::new(
        PmemConfig::default()
            .pool_size(96 << 20)
            .latency_mode(LatencyMode::Off)
            .crash_tracking(true)
            .pmsan(true),
    );
    let alloc = NvAllocator::create(Arc::clone(&pool), NvConfig::log()).unwrap();
    let mut t = alloc.thread();
    let mut live = HashMap::new();
    for i in 0..200usize {
        let addr = t.malloc_to(100, alloc.root_offset(i)).unwrap();
        pool.write_u64(addr, i as u64);
        pool.flush(t.pm_mut(), addr, 8, nvalloc_pmem::FlushKind::Data);
        live.insert(i, addr);
    }
    let img1 = PmemPool::from_crash_image(pool.crash());

    // First recovery starts (persists the RECOVERY flag) and then "crashes":
    // simulate by recovering fully, crashing, and rewinding the flags to the
    // mid-recovery state before the second attempt.
    {
        let (_a, _) = NvAllocator::recover(Arc::clone(&img1), NvConfig::log()).unwrap();
    }
    let mut img2 = img1.crash();
    // Force the arena flags back to RECOVERY (words live at offset 64+i*64;
    // values: 1 running / 2 shutdown / 3 recovery).
    {
        let p = PmemPool::from_crash_image(img2);
        let mut t = p.register_thread();
        for i in 0..NvConfig::log().arenas {
            p.persist_u64(&mut t, 64 + (i * 64) as u64, 3, nvalloc_pmem::FlushKind::Meta);
        }
        img2 = p.crash();
    }
    let reboot = PmemPool::from_crash_image(img2);
    let (a2, report) = NvAllocator::recover(Arc::clone(&reboot), NvConfig::log())
        .expect("recovery must be idempotent");
    assert!(!report.normal_shutdown, "RECOVERY flag means failure path");
    let mut t2 = a2.thread();
    for (&i, &addr) in &live {
        assert_eq!(reboot.read_u64(a2.root_offset(i)), addr);
        assert_eq!(reboot.read_u64(addr), i as u64);
        t2.free_from(a2.root_offset(i)).unwrap();
    }
    assert_eq!(a2.live_bytes(), 0);
    pmsan_clean(&reboot, "double recovery");
}

/// Long seeded extent churn at the shipped defaults (auto-sized large
/// shards, booklog GC on): 16 KiB–4 MiB requests, most under 256 KiB,
/// under a 40 MiB live cap. Enough ops for fast GC to reap booklog
/// chunks that later appends reuse and for slow GC to run between. A
/// crash must bring back every live extent, covering its request.
#[test]
fn long_large_extent_churn_recovers_every_live_extent() {
    const OPS: usize = 50_000;
    const SLOTS: usize = 1024;
    const LIVE_CAP: usize = 40 << 20;
    let pool = PmemPool::new(
        PmemConfig::default()
            .pool_size(112 << 20)
            .latency_mode(LatencyMode::Off)
            .crash_tracking(true)
            .pmsan(true),
    );
    let alloc = NvAllocator::create(Arc::clone(&pool), NvConfig::log()).unwrap();
    let mut t = alloc.thread();
    let mut rng = SmallRng::seed_from_u64(0x5eed_0e47);
    let mut live = vec![0usize; SLOTS];
    let mut live_bytes = 0usize;
    let mut frees = 0usize;
    for _ in 0..OPS {
        let slot = rng.gen_range(0..SLOTS);
        let size = {
            let shift =
                if rng.gen_bool(0.85) { rng.gen_range(14..18) } else { rng.gen_range(18..22) };
            rng.gen_range(1usize << shift..2usize << shift)
        };
        // A live slot is freed; over the cap, the next live slot is.
        let victim = if live[slot] > 0 {
            Some(slot)
        } else if live_bytes + size > LIVE_CAP {
            (1..SLOTS).map(|d| (slot + d) % SLOTS).find(|&s| live[s] > 0)
        } else {
            None
        };
        match victim {
            Some(s) => {
                t.free_from(alloc.root_offset(s)).unwrap();
                live_bytes -= live[s];
                live[s] = 0;
                frees += 1;
            }
            None => {
                t.malloc_to(size, alloc.root_offset(slot)).unwrap();
                live_bytes += size;
                live[slot] = size;
            }
        }
    }
    let m = alloc.metrics();
    assert!(frees > OPS / 3, "the trace must churn, not just fill");
    assert!(m.booklog_fast_gc_reaps > 0, "fast GC must have reaped chunks");
    assert!(m.booklog_alt_flips > 0, "slow GC must have run");
    pmsan_clean(&pool, "large-extent churn");

    let img = PmemPool::from_crash_image(pool.crash());
    let (ralloc, _) = NvAllocator::recover(Arc::clone(&img), NvConfig::log()).expect("recover");
    audit_clean(&img, &NvConfig::log());
    for (slot, &size) in live.iter().enumerate() {
        let addr = img.read_u64(ralloc.root_offset(slot));
        if size == 0 {
            assert_eq!(addr, 0, "slot {slot} was freed before the crash");
            continue;
        }
        let usable = ralloc.usable_size(addr);
        assert!(
            usable.is_some_and(|u| u >= size),
            "slot {slot}: {size} B live at {addr:#x}, recovered usable_size {usable:?}"
        );
    }
    pmsan_clean(&img, "large-extent recovery");
}
