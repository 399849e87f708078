//! `PmemStats` snapshots are taken under the model's lock, so every
//! snapshot is a consistent cut of the flush counters, and phase diffs
//! across a `reset` never underflow.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use nvalloc_pmem::{FlushKind, PmemConfig, PmemPool};

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
