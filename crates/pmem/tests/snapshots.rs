//! `PmemStats` snapshots are taken under the model's lock, so every
//! snapshot is a consistent cut of the flush counters, and phase diffs
//! across a `reset` never underflow.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use nvalloc_pmem::{FlushKind, PmThread, PmemConfig, PmemPool, StatsSnapshot};

#[test]
fn snapshots_taken_while_flushing_are_consistent() {
    let pool = PmemPool::new(PmemConfig::default().pool_size(8 << 20));
    let stop = AtomicBool::new(false);
    let start = Barrier::new(2);
    let (taken, torn) = std::thread::scope(|s| {
        s.spawn(|| {
            let mut t = pool.register_thread();
            start.wait();
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                // Each line twice in a row (reflushes), lines in order
                // (sequential writes), and every seventh flush a jump.
                let off = if i.is_multiple_of(7) {
                    (i.wrapping_mul(0x9E37_79B9) % (1 << 16)) * 64
                } else {
                    (i / 2 % 4096) * 64
                };
                pool.flush(&mut t, off, 8, FlushKind::ALL[(i % 4) as usize]);
                if i.is_multiple_of(3) {
                    pool.fence(&mut t);
                }
                i += 1;
            }
        });
        start.wait();
        let until = Instant::now() + Duration::from_millis(300);
        let (mut taken, mut torn) = (0u64, Vec::new());
        while Instant::now() < until {
            let s = pool.stats().snapshot();
            taken += 1;
            let consistent = s.flushes == s.kind_flushes.iter().sum::<u64>()
                && s.reflushes == s.kind_reflushes.iter().sum::<u64>()
                && s.seq_writes + s.rand_writes == s.flushes
                && s.bytes_flushed == 64 * s.flushes;
            if !consistent && torn.len() < 4 {
                torn.push(s);
            }
        }
        stop.store(true, Ordering::Relaxed);
        (taken, torn)
    });
    assert!(taken > 0);
    assert!(torn.is_empty(), "torn snapshots among {taken}: {torn:?}");
}

#[test]
fn allocator_flushes_survive_a_reset_between_snapshots() {
    let pool = PmemPool::new(PmemConfig::default().pool_size(1 << 20));
    let mut t = pool.register_thread();
    for i in 0..100 {
        pool.flush(&mut t, i * 64, 8, FlushKind::Meta);
    }
    let a = pool.stats().snapshot();
    pool.stats().reset();
    for i in 0..50 {
        pool.flush(&mut t, i * 64, 8, FlushKind::Data);
    }
    let b = pool.stats().snapshot();
    let d = b.since(&a);
    assert_eq!(d.flushes_of(FlushKind::Data), 50);
    assert_eq!(d.allocator_flushes(), 0);
}

/// Three threads flush and fence while a fourth takes snapshots: more
/// threads than a 2-CPU host has cores, so waiters on the model lock also
/// fall back from spinning to blocking. Every snapshot is a consistent
/// cut, and the last one counts exactly what the threads issued.
#[test]
fn snapshots_count_exactly_with_more_threads_than_cores() {
    const FLUSHES: u64 = 20_000;
    let pool = PmemPool::new(PmemConfig::default().pool_size(8 << 20));
    let fence_ns = pool.model().params().fence_ns;
    let stop = AtomicBool::new(false);
    let start = Barrier::new(4);
    let (issued, (taken, torn, last)) = std::thread::scope(|s| {
        let workers: Vec<_> = (0..3u64)
            .map(|k| {
                let (pool, start) = (&pool, &start);
                s.spawn(move || {
                    let mut t = pool.register_thread();
                    let kind = FlushKind::ALL[k as usize];
                    let mut fences = 0;
                    start.wait();
                    for i in 0..FLUSHES {
                        // Lines in order with a reflush every other flush
                        // and a jump every seventh, as above.
                        let line = if i.is_multiple_of(7) { i * 97 % 8192 } else { i / 2 % 4096 };
                        pool.flush(&mut t, (k << 21) + line * 64, 8, kind);
                        if i.is_multiple_of(3) {
                            pool.fence(&mut t);
                            fences += 1;
                        }
                    }
                    (kind, fences, t.virtual_ns() - fences * fence_ns)
                })
            })
            .collect();
        let reader = s.spawn(|| {
            start.wait();
            let (mut taken, mut torn) = (0u64, Vec::new());
            while !stop.load(Ordering::Relaxed) {
                let s = pool.stats().snapshot();
                taken += 1;
                let consistent = s.flushes == s.kind_flushes.iter().sum::<u64>()
                    && s.reflushes == s.kind_reflushes.iter().sum::<u64>()
                    && s.seq_writes + s.rand_writes == s.flushes
                    && s.bytes_flushed == 64 * s.flushes;
                if !consistent && torn.len() < 4 {
                    torn.push(s);
                }
            }
            (taken, torn, pool.stats().snapshot())
        });
        let issued: Vec<_> = workers.into_iter().map(|w| w.join().unwrap()).collect();
        stop.store(true, Ordering::Relaxed);
        (issued, reader.join().unwrap())
    });
    assert!(taken > 0);
    assert!(torn.is_empty(), "torn snapshots among {taken}: {torn:?}");
    assert_eq!(last.flushes, 3 * FLUSHES);
    assert_eq!(last.fences, issued.iter().map(|i| i.1).sum::<u64>());
    for (kind, _, ns) in issued {
        assert_eq!((last.flushes_of(kind), last.ns_of(kind)), (FLUSHES, ns), "{kind:?}");
    }
    assert_eq!(last.flushes_of(FlushKind::Data), 0);
}

/// A dropped thread's counts stay, `reset` zeroes the counts of live and
/// dropped threads alike, and a thread registered with another pool still
/// counts in the pool it flushes.
#[test]
fn dropped_reset_and_foreign_threads_stay_counted() {
    let pool = PmemPool::new(PmemConfig::default().pool_size(1 << 20));
    let other = PmemPool::new(PmemConfig::default().pool_size(1 << 20));
    let persist = |t: &mut PmThread, lines: u64, kind: FlushKind| {
        for i in 0..lines {
            pool.flush(t, i * 64, 8, kind);
        }
        pool.fence(t);
    };
    let counts = |kind: FlushKind| {
        let s = pool.stats().snapshot();
        (s.flushes, s.fences, s.flushes_of(kind))
    };
    std::thread::scope(|s| {
        s.spawn(|| persist(&mut pool.register_thread(), 10, FlushKind::Meta));
    });
    assert_eq!(counts(FlushKind::Meta), (10, 1, 10), "a dropped thread's counts stay");
    let mut live = pool.register_thread();
    persist(&mut live, 5, FlushKind::Wal);
    assert_eq!(counts(FlushKind::Meta), (15, 2, 10));

    pool.stats().reset();
    assert_eq!(pool.stats().snapshot(), StatsSnapshot::default());
    persist(&mut live, 3, FlushKind::Wal);
    assert_eq!(counts(FlushKind::Wal), (3, 1, 3), "reset zeroes live and dropped threads");

    let mut foreign = other.register_thread();
    persist(&mut foreign, 4, FlushKind::BookLog);
    assert_eq!(counts(FlushKind::BookLog), (7, 2, 4), "another pool's thread counts here");
    assert_eq!(other.stats().snapshot(), StatsSnapshot::default());

    let before = pool.stats().snapshot();
    drop((live, foreign));
    let _next = pool.register_thread();
    assert_eq!(pool.stats().snapshot(), before, "dropping threads loses no count");
}
