//! Remote-mix: every thread allocates mixed-size blocks and hands a
//! configurable fraction to its ring neighbour to free, so a known share
//! of all frees is *cross-thread*. This is the workload behind the
//! Fig. 22 scalability experiment: local frees exercise the lock-free
//! tcache fast path, handed-off frees exercise the per-arena remote-free
//! queues, and the steady alloc stream exercises slab carves from the
//! large shards.
//!
//! Topology: thread `k` sends root-slot indices to thread `(k+1) % t`
//! over a bounded channel and frees whatever thread `(k-1) % t` sends it.
//! Sends that would block fall back to a local free, so the ring cannot
//! deadlock and throughput is never channel-bound. Shutdown uses an
//! in-band sentinel: each thread sends [`DONE`], then drains its inbox
//! until it sees its predecessor's.

use std::sync::Arc;

use nvalloc::api::PmAllocator;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::harness::{run_threads, spread_root, BenchMeasurement, ROOT_SPREAD};

/// Block sizes cycled through by the workload — all small classes, so
/// every free goes down the slab free path rather than the large path.
pub const SIZES: [usize; 5] = [24, 64, 96, 192, 448];

/// Large block sizes mixed in at [`Params::large_frac`] — all above
/// `LARGE_MIN`, so they take the extent path and exercise the large-shard
/// locks (including cross-shard frees when handed to the ring neighbour).
pub const LARGE_SIZES: [usize; 3] = [20 << 10, 40 << 10, 72 << 10];

/// In-band shutdown sentinel (never a valid root-slot index).
const DONE: usize = usize::MAX;

/// Remote-mix parameters.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Worker threads (ring size).
    pub threads: usize,
    /// Allocations per thread.
    pub ops: usize,
    /// Fraction of frees handed to the ring neighbour (0.0–1.0).
    pub remote_frac: f64,
    /// Fraction of allocations drawn from [`LARGE_SIZES`] instead of
    /// [`SIZES`] (0.0–1.0); these take the sharded extent path.
    pub large_frac: f64,
    /// RNG seed (per-thread streams are derived from it).
    pub seed: u64,
}

impl Params {
    /// Laptop-scale defaults with the paper-style 40 % remote share.
    pub fn quick(threads: usize) -> Params {
        Params { threads, ops: 4000, remote_frac: 0.4, large_frac: 0.0, seed: 0x5EED }
    }
}

/// Run remote-mix; `ops` counts allocations + frees (wherever performed).
///
/// # Panics
/// Panics if the allocator exposes fewer than 8 root slots per thread.
pub fn run(alloc: &Arc<dyn PmAllocator>, p: Params) -> BenchMeasurement {
    let threads = p.threads.max(1);
    let span = alloc.root_count() / ROOT_SPREAD / threads;
    assert!(span >= 8, "need at least 8 root slots per thread, have {span}");
    // Slot `base` is the local scratch slot; `base+1..base+span` is the
    // remote handoff ring. The channel capacity is kept 3 below the ring
    // size so a sender can never lap a slot the neighbour has not freed
    // yet (same margin as the prodcon workload).
    let remote_ring = span - 1;
    let cap = remote_ring.saturating_sub(3).clamp(1, 1024);
    let channels: Vec<_> =
        (0..threads).map(|_| crossbeam::channel::bounded::<usize>(cap)).collect();
    let channels = Arc::new(channels);

    run_threads(alloc, threads, move |k, t| {
        // Tag the worker so profiled runs attribute samples by workload
        // name instead of symbolizing a backtrace per sample.
        nvalloc::prof::with_site("remote_mix", || {
            let mut rng = SmallRng::seed_from_u64(p.seed ^ (k as u64) << 32);
            let tx = channels[(k + 1) % threads].0.clone();
            let rx = channels[k].1.clone();
            let base = k * span;
            let mut next_remote = 0usize;
            let mut pred_done = false;
            let mut ops = 0u64;
            for _ in 0..p.ops {
                // Free whatever the ring predecessor handed over so far.
                while let Ok(slot) = rx.try_recv() {
                    if slot == DONE {
                        pred_done = true;
                        break; // FIFO: nothing follows the sentinel
                    }
                    t.free_from(spread_root(&**alloc, slot)).expect("remote free");
                    ops += 1;
                }
                let size = if p.large_frac > 0.0 && rng.gen::<f64>() < p.large_frac {
                    LARGE_SIZES[rng.gen_range(0..LARGE_SIZES.len())]
                } else {
                    SIZES[rng.gen_range(0..SIZES.len())]
                };
                if threads > 1 && rng.gen::<f64>() < p.remote_frac {
                    let slot = base + 1 + next_remote;
                    next_remote = (next_remote + 1) % remote_ring;
                    t.malloc_to(size, spread_root(&**alloc, slot)).expect("alloc");
                    ops += 1;
                    if tx.try_send(slot).is_err() {
                        // Neighbour saturated: free here so the ring never
                        // stalls (the slot is recycled either way).
                        t.free_from(spread_root(&**alloc, slot)).expect("free");
                        ops += 1;
                    }
                } else {
                    let root = spread_root(&**alloc, base);
                    t.malloc_to(size, root).expect("alloc");
                    t.free_from(root).expect("free");
                    ops += 2;
                }
            }
            // Shutdown: push the sentinel, draining our own inbox while the
            // neighbour's channel is full (every thread keeps draining, so
            // every channel keeps emptying — no deadlock).
            while tx.try_send(DONE).is_err() {
                while let Ok(slot) = rx.try_recv() {
                    if slot == DONE {
                        pred_done = true;
                        break;
                    }
                    t.free_from(spread_root(&**alloc, slot)).expect("drain free");
                    ops += 1;
                }
                std::thread::yield_now();
            }
            while !pred_done {
                match rx.recv() {
                    Ok(slot) if slot == DONE => pred_done = true,
                    Ok(slot) => {
                        t.free_from(spread_root(&**alloc, slot)).expect("drain free");
                        ops += 1;
                    }
                    Err(_) => break,
                }
            }
            ops
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocators::Which;
    use nvalloc_pmem::{LatencyMode, PmemConfig, PmemPool};

    #[test]
    fn every_block_is_freed() {
        let pool = PmemPool::new(
            PmemConfig::default().pool_size(64 << 20).latency_mode(LatencyMode::Virtual),
        );
        let a = Which::NvallocLog.create(pool);
        let m =
            run(&a, Params { threads: 4, ops: 800, remote_frac: 0.5, large_frac: 0.0, seed: 1 });
        // Every allocation has a matching free: ops = 2 × allocs.
        assert_eq!(m.ops, 2 * 4 * 800);
        assert_eq!(a.live_bytes(), 0);
        // A healthy share of frees crossed threads.
        assert!(m.metrics.free_remote > 0, "no remote frees recorded");
    }

    #[test]
    fn single_thread_degrades_to_local_pairs() {
        let pool = PmemPool::new(
            PmemConfig::default().pool_size(32 << 20).latency_mode(LatencyMode::Virtual),
        );
        let a = Which::NvallocLog.create(pool);
        let m =
            run(&a, Params { threads: 1, ops: 500, remote_frac: 0.9, large_frac: 0.0, seed: 2 });
        assert_eq!(m.ops, 2 * 500);
        assert_eq!(a.live_bytes(), 0);
        assert_eq!(m.metrics.free_remote, 0);
    }

    #[test]
    fn large_mix_takes_the_sharded_extent_path() {
        let pool = PmemPool::new(
            PmemConfig::default().pool_size(256 << 20).latency_mode(LatencyMode::Virtual),
        );
        let a = Which::NvallocLog.create(pool);
        let m =
            run(&a, Params { threads: 4, ops: 400, remote_frac: 0.4, large_frac: 0.2, seed: 3 });
        assert_eq!(a.live_bytes(), 0);
        // Large allocs/frees took shard locks; the counters prove the
        // extent path actually ran (and per-shard vectors are populated).
        assert!(m.metrics.large_lock_acquires > 0, "no large-shard lock traffic");
        assert!(!m.metrics.large_shard_acquires.is_empty());
        assert_eq!(
            m.metrics.large_lock_acquires,
            m.metrics.large_shard_acquires.iter().sum::<u64>()
        );
    }
}
