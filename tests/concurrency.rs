//! Concurrency tests for the scalable free path: the lock-free local
//! fast path (zero mutex acquisitions for tcache-bound frees), an
//! 8-thread mixed-size stress with cross-thread handoff over
//! `std::sync::mpsc`, crash recovery with remote frees still queued, and
//! `quiesce()` draining the remote queue of an arena whose threads all
//! exited.

use std::sync::mpsc;
use std::sync::Arc;

use nvalloc::api::PmAllocator;
use nvalloc::telemetry::OpKind;
use nvalloc::{NvAllocator, NvConfig};
use nvalloc_pmem::{LatencyMode, PmemConfig, PmemPool};

fn pool_mb(mb: usize) -> Arc<PmemPool> {
    PmemPool::new(PmemConfig::default().pool_size(mb << 20).latency_mode(LatencyMode::Off))
}

fn virtual_pool(mb: usize, pmsan: bool) -> Arc<PmemPool> {
    PmemPool::new(
        PmemConfig::default().pool_size(mb << 20).latency_mode(LatencyMode::Virtual).pmsan(pmsan),
    )
}

/// A same-thread free landing in a non-full tcache takes zero mutex
/// acquisitions: N alternating malloc/free pairs bump the free-path lock
/// counter by exactly 0 and the fast-local counter by exactly N.
#[test]
fn single_thread_frees_take_zero_locks() {
    let alloc = NvAllocator::create(pool_mb(64), NvConfig::log()).unwrap();
    let mut t = alloc.thread();
    let sizes = [24usize, 64, 192];
    // Warm up: fault in a slab + tcache for each class.
    for (i, &s) in sizes.iter().enumerate() {
        let root = alloc.root_offset(i);
        t.malloc_to(s, root).unwrap();
        t.free_from(root).unwrap();
    }
    let m0 = alloc.metrics();
    let n = 300u64;
    for i in 0..n {
        let root = alloc.root_offset(8);
        t.malloc_to(sizes[i as usize % sizes.len()], root).unwrap();
        t.free_from(root).unwrap();
    }
    let d = alloc.metrics().since(&m0);
    assert_eq!(d.free_locks, 0, "same-thread tcache-bound frees must not lock");
    assert_eq!(d.free_fast_local, n, "every free must take the lock-free fast path");
    assert_eq!(d.free_remote, 0);
}

/// 8 OS threads, mixed small and large sizes, ~1/3 of blocks handed to
/// the ring neighbour over `std::sync::mpsc` and freed there. Final
/// occupancy accounting proves no block was lost or freed twice: every
/// free succeeded, frees == allocations, and live bytes return to zero.
#[test]
fn eight_thread_stress_with_mpsc_handoff() {
    const THREADS: usize = 8;
    const OPS: usize = 480;
    const SIZES: [usize; 8] = [16, 48, 64, 200, 512, 1344, 2048, 24 * 1024];

    let alloc = NvAllocator::create(pool_mb(256), NvConfig::log().arenas(THREADS)).unwrap();
    let (mut txs, mut rxs): (Vec<_>, Vec<_>) =
        (0..THREADS).map(|_| mpsc::channel::<usize>()).unzip();
    // Thread k frees what its predecessor sends on rxs[k] and hands off
    // to its successor on txs[k+1]; rotating the senders by one gives
    // each thread ownership of exactly its pair.
    txs.rotate_left(1);

    std::thread::scope(|s| {
        for k in 0..THREADS {
            let tx = txs.pop().expect("one sender per thread");
            let rx = rxs.pop().expect("one receiver per thread");
            let alloc = &alloc;
            s.spawn(move || {
                let mut t = alloc.thread();
                let base = (THREADS - 1 - k) * OPS; // pop order is reversed
                for i in 0..OPS {
                    while let Ok(slot) = rx.try_recv() {
                        t.free_from(alloc.root_offset(slot)).expect("handoff free");
                    }
                    let slot = base + i;
                    let root = alloc.root_offset(slot);
                    t.malloc_to(SIZES[i % SIZES.len()], root).expect("alloc");
                    if i % 3 == 0 {
                        tx.send(slot).expect("neighbour alive");
                    } else {
                        t.free_from(root).expect("local free");
                    }
                }
                // Hang up, then drain the predecessor until it does too.
                drop(tx);
                while let Ok(slot) = rx.recv() {
                    t.free_from(alloc.root_offset(slot)).expect("drain free");
                }
            });
        }
    });

    assert_eq!(alloc.live_bytes(), 0, "every allocated block must be freed");
    let m = alloc.metrics();
    let allocs = m.hists.of(OpKind::MallocSmall).count() + m.hists.of(OpKind::MallocLarge).count();
    assert_eq!(allocs, (THREADS * OPS) as u64);
    assert_eq!(m.hists.of(OpKind::Free).count(), allocs, "frees must match allocations");
    assert!(m.free_remote > 0, "cross-thread frees must use the remote queues");
}

/// Crash while remote frees are still queued (freeing threads completed
/// every persistent transition, the owner arena never drained). LOG
/// recovery must see the frees as durable and the heap must reconcile.
#[test]
fn crash_mid_remote_free_recovers_log() {
    let pool = PmemPool::new(
        PmemConfig::default()
            .pool_size(96 << 20)
            .latency_mode(LatencyMode::Off)
            .crash_tracking(true),
    );
    let alloc = NvAllocator::create(Arc::clone(&pool), NvConfig::log().arenas(2)).unwrap();
    let mut t0 = alloc.thread(); // arena 0
    let mut t1 = alloc.thread(); // arena 1 (least-loaded assignment)
    let n = 48usize;
    let mut addrs = Vec::new();
    for i in 0..n {
        let addr = t0.malloc_to(64 + (i % 3) * 120, alloc.root_offset(i)).unwrap();
        pool.write_u64(addr, 0xBEEF << 16 | i as u64);
        pool.flush(t0.pm_mut(), addr, 8, nvalloc_pmem::FlushKind::Data);
        pool.fence(t0.pm_mut());
        addrs.push(addr);
    }
    // t1 frees every even block: cross-arena, so these land on arena 0's
    // remote queue, which nobody drains before the crash.
    for i in (0..n).step_by(2) {
        t1.free_from(alloc.root_offset(i)).unwrap();
    }
    let m = alloc.metrics();
    assert!(m.free_remote > 0, "frees must have gone through the remote queue");
    assert_eq!(m.remote_drain_batches, 0, "the queue must still be pending at the crash");

    let img = PmemPool::from_crash_image(pool.crash());
    let (ralloc, report) =
        NvAllocator::recover(Arc::clone(&img), NvConfig::log().arenas(2)).expect("recover");
    assert!(!report.normal_shutdown);
    let mut t = ralloc.thread();
    for (i, &addr) in addrs.iter().enumerate() {
        let root = ralloc.root_offset(i);
        if i % 2 == 0 {
            // Freed before the crash: durably gone.
            assert_eq!(img.read_u64(root), 0, "freed root {i} must be zeroed");
            assert!(t.free_from(root).is_err(), "freed block {i} must not free again");
        } else {
            // Survivor: payload intact, freeable exactly once.
            assert_eq!(img.read_u64(root), addr, "survivor root {i}");
            assert_eq!(img.read_u64(addr), 0xBEEF << 16 | i as u64, "payload {i}");
            t.free_from(root).unwrap();
            assert!(t.free_from(root).is_err());
        }
    }
    assert_eq!(ralloc.live_bytes(), 0);
    // The heap stays fully usable.
    for i in 0..256usize {
        let a = t.malloc_to(200, ralloc.root_offset(i)).unwrap();
        img.write_u64(a, i as u64);
    }
    for i in 0..256usize {
        assert_eq!(img.read_u64(img.read_u64(ralloc.root_offset(i))), i as u64);
    }
}

/// Same crash shape under the weakly consistent GC variant: recovery is
/// conservative (an unflushed root zeroing may resurrect a freed block),
/// but the recovered heap must reconcile — every root-reachable block
/// frees exactly once and live bytes return to zero.
#[test]
fn crash_mid_remote_free_recovers_gc() {
    let pool = PmemPool::new(
        PmemConfig::default()
            .pool_size(96 << 20)
            .latency_mode(LatencyMode::Off)
            .crash_tracking(true),
    );
    let alloc = NvAllocator::create(Arc::clone(&pool), NvConfig::gc().arenas(2)).unwrap();
    let mut t0 = alloc.thread();
    let mut t1 = alloc.thread();
    let n = 48usize;
    for i in 0..n {
        t0.malloc_to(64 + (i % 3) * 120, alloc.root_offset(i)).unwrap();
    }
    for i in (0..n).step_by(2) {
        t1.free_from(alloc.root_offset(i)).unwrap();
    }
    assert!(alloc.metrics().free_remote > 0);

    let img = PmemPool::from_crash_image(pool.crash());
    let (ralloc, report) =
        NvAllocator::recover(Arc::clone(&img), NvConfig::gc().arenas(2)).expect("recover");
    assert!(!report.normal_shutdown);
    let mut t = ralloc.thread();
    for i in 0..n {
        let root = ralloc.root_offset(i);
        if img.read_u64(root) != 0 {
            t.free_from(root).unwrap();
            assert!(t.free_from(root).is_err());
        }
    }
    assert_eq!(ralloc.live_bytes(), 0, "GC recovery must account exactly the reachable set");
    for i in 0..128usize {
        t.malloc_to(300, ralloc.root_offset(i)).unwrap();
    }
    assert!(ralloc.live_bytes() > 0);
}

/// An arena whose threads have all exited has no malloc slow path left
/// to drain its remote-free queue; `quiesce()` must be the foreign drain
/// of last resort and count it as such.
#[test]
fn quiesce_drains_stranded_remote_queue_of_exited_thread() {
    let pool = virtual_pool(96, false);
    let alloc = NvAllocator::create(Arc::clone(&pool), NvConfig::log().arenas(2).roots(8)).unwrap();
    // Least-loaded assignment pins t0 to arena 0 and t1 to arena 1.
    let mut t0 = alloc.thread();
    let mut t1 = alloc.thread();
    let addr = t0.malloc_to(64, alloc.root_offset(0)).unwrap();
    assert_ne!(addr, 0);
    // Arena 0 now has zero registered threads; a foreign free of its
    // block lands on its remote queue, and with the owner gone nothing
    // ever drains it on a malloc slow path.
    drop(t0);
    t1.free_from(alloc.root_offset(0)).unwrap();
    drop(t1);
    let before = alloc.metrics();
    assert_eq!(before.free_remote, 1, "the foreign free must have taken the remote path");
    assert_eq!(before.remote_drain_foreign, 0, "nothing drained it yet");
    alloc.quiesce();
    let after = alloc.metrics();
    assert_eq!(
        after.remote_drain_foreign,
        before.remote_drain_foreign + 1,
        "quiesce must count the stranded-queue drain as a foreign drain"
    );
    assert_eq!(alloc.live_bytes(), 0);
    // The queue is empty now: a second quiesce finds nothing stranded.
    alloc.quiesce();
    assert_eq!(alloc.metrics().remote_drain_foreign, after.remote_drain_foreign);
}
