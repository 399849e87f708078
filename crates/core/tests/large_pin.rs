//! Pins the extent allocator's decisions on a fixed, seeded op sequence.
//!
//! One run drives a [`LargeAlloc`] directly, in log-structured bookkeeping
//! and in in-place header mode, through about 20 000 ops: page-aligned
//! allocations from 16 KiB to past [`HUGE_MIN`], 64 KiB-aligned slab
//! frames, frees that coalesce across 4 MiB region boundaries, decay ticks
//! on an advancing virtual clock, `drain_free_lists`, and a crash followed
//! by [`LargeAlloc::recover`] and more churn. Every returned `(id, off)`,
//! the mapped-byte counters, the recovered inventory, the counters, the
//! final gauge, the flush statistics and the persistent image fold into
//! one FNV-1a value. The expected values were captured before the extent
//! indexes were restructured; any change to a best-fit, split, coalesce or
//! decay decision, or to what reaches the media, shows up as a mismatch.

use std::sync::Arc;

use nvalloc::internals::{LargeAlloc, LargeConfig, RTree, VehId, HUGE_MIN, PAGE};
use nvalloc::SLAB_SIZE;
use nvalloc_pmem::{LatencyMode, ModelParams, PmError, PmThread, PmemConfig, PmemPool};

const POOL: usize = 64 << 20;
const HEAP_BASE: u64 = 2 << 20;
const LIVE_CAP: usize = 16 << 20;
const OPS: usize = 20_000;
/// Op index of the crash; churn continues on the recovered allocator.
const CRASH_AT: usize = 14_000;

/// SplitMix64: a fixed generator, so the sequence never depends on a
/// crate's RNG version.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// FNV-1a over little-endian words.
struct Fold(u64);

impl Fold {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01B3);
        }
    }

    fn words(&mut self, ws: &[u64]) {
        ws.iter().for_each(|&w| self.word(w));
    }
}

fn config(log: bool) -> LargeConfig {
    LargeConfig {
        heap_base: HEAP_BASE,
        heap_bytes: POOL - HEAP_BASE as usize,
        log_bookkeeping: log,
        booklog_base: 4096,
        booklog_bytes: (1 << 20) - 4096,
        booklog_stripes: 6,
        booklog_gc: true,
        slow_gc_threshold: 16 << 10,
        region_table_base: 1 << 20,
        region_table_bytes: 64 << 10,
        shard_tag: 0,
    }
}

/// Fence on an otherwise idle thread until the pool's virtual clock has
/// moved `ns` forward on it, and let the allocator see that time pass.
fn idle(pool: &PmemPool, la: &mut LargeAlloc, clock: &mut PmThread, ns: u64) {
    let until = clock.virtual_ns() + ns;
    while clock.virtual_ns() < until {
        pool.fence(clock);
    }
    la.maybe_decay(clock);
}

/// A request size: log-uniform from 16 KiB, capped 256 KiB past
/// `HUGE_MIN`, so about one in nine gets a dedicated mapping.
fn request(rng: &mut SplitMix) -> usize {
    let shift = 14 + rng.below(8);
    let size = (1 << shift) + rng.below(1 << shift) as usize;
    size.min(HUGE_MIN + (256 << 10))
}

struct Driver {
    rng: SplitMix,
    fold: Fold,
    /// Live extents: (id, size).
    live: Vec<(VehId, usize)>,
    live_bytes: usize,
}

impl Driver {
    fn free_one(&mut self, pool: &PmemPool, la: &mut LargeAlloc, t: &mut PmThread) {
        let (id, size) = self.live.swap_remove(self.rng.below(self.live.len() as u64) as usize);
        la.free(pool, t, id).expect("free of a live extent");
        self.live_bytes -= size;
        self.fold.word(id as u64);
    }

    /// One op: a free, an allocation, a slab frame, or an idle spell.
    fn step(
        &mut self,
        pool: &PmemPool,
        la: &mut LargeAlloc,
        t: &mut PmThread,
        clock: &mut PmThread,
    ) {
        let roll = self.rng.below(100);
        if roll < 2 {
            let ns = 50_000_000 * (1 + self.rng.below(20));
            idle(pool, la, clock, ns);
            self.fold.word(ns);
            return;
        }
        let (size, aligned) =
            if roll < 20 { (SLAB_SIZE, true) } else { (request(&mut self.rng), false) };
        if !self.live.is_empty() && (roll >= 60 || self.live_bytes + size > LIVE_CAP) {
            self.free_one(pool, la, t);
            return;
        }
        let got = if aligned {
            la.alloc_aligned(pool, t, size, SLAB_SIZE, true)
        } else {
            la.alloc(pool, t, size, false)
        };
        match got {
            Ok((id, off)) => {
                self.fold.words(&[id as u64, off, size as u64]);
                self.live.push((id, size.next_multiple_of(PAGE)));
                self.live_bytes += size.next_multiple_of(PAGE);
            }
            Err(PmError::OutOfMemory { requested }) => {
                self.fold.words(&[u64::MAX, requested as u64]);
            }
            Err(e) => panic!("alloc of {size} B: {e}"),
        }
        self.fold.words(&[la.mapped_bytes() as u64, la.peak_mapped() as u64]);
    }

    /// Free every live extent in a seeded order, so reclaimed neighbours
    /// coalesce into runs that span regions.
    fn free_all(&mut self, pool: &PmemPool, la: &mut LargeAlloc, t: &mut PmThread) {
        while !self.live.is_empty() {
            self.free_one(pool, la, t);
        }
        self.fold.words(&[la.mapped_bytes() as u64, la.gauge().free_extents as u64]);
    }
}

/// The pool's flush statistics and the worker's virtual clock.
fn fold_flushes(pool: &PmemPool, t: &PmThread, fold: &mut Fold) {
    let ps = pool.stats().snapshot();
    fold.words(&[ps.flushes, ps.fences, ps.bytes_flushed, t.virtual_ns()]);
    fold.words(&ps.kind_ns);
}

/// Every non-zero word of the persistent image, with its index.
fn non_zero_words(pool: &PmemPool, fold: &mut Fold) {
    let image = pool.crash();
    for (i, &w) in image.words().iter().enumerate().filter(|(_, &w)| w != 0) {
        fold.words(&[i as u64, w]);
    }
}

fn run(log: bool) -> u64 {
    let params = ModelParams { fence_ns: 200_000, ..ModelParams::default() };
    let pmem = PmemConfig::default()
        .pool_size(POOL)
        .latency_mode(LatencyMode::Virtual)
        .model_params(params)
        .crash_tracking(true);
    let pool = PmemPool::new(pmem);
    let mut t = pool.register_thread();
    let mut clock = pool.register_thread();
    let mut la = LargeAlloc::new(&pool, config(log), Arc::new(RTree::new()));
    let mut d = Driver {
        rng: SplitMix(0x1A26_E0F5_EED0_0001),
        fold: Fold(0xCBF2_9CE4_8422_2325),
        live: Vec::new(),
        live_bytes: 0,
    };

    for op in 0..CRASH_AT {
        d.step(&pool, &mut la, &mut t, &mut clock);
        match op {
            4_000 | 9_000 => d.free_all(&pool, &mut la, &mut t),
            6_000 | 11_000 => {
                la.drain_free_lists();
                d.fold.words(&[la.mapped_bytes() as u64, la.gauge().free_extents as u64]);
            }
            _ => {}
        }
    }

    fold_flushes(&pool, &t, &mut d.fold);
    // Crash: only what the allocator persisted survives.
    let image = PmemPool::from_crash_image(pool.crash());
    drop(pool);
    let (mut la, recovered) =
        LargeAlloc::recover(&image, config(log), Arc::new(RTree::new())).expect("recover");
    d.live = recovered.iter().map(|r| (r.veh, r.size)).collect();
    d.live_bytes = d.live.iter().map(|&(_, size)| size).sum();
    for r in &recovered {
        d.fold.words(&[r.veh as u64, r.off, r.size as u64, r.is_slab as u64]);
    }
    d.fold.words(&[
        la.mapped_bytes() as u64,
        la.peak_mapped() as u64,
        la.gauge().free_extents as u64,
    ]);

    let mut t = image.register_thread();
    let mut clock = image.register_thread();
    for op in CRASH_AT..OPS {
        d.step(&image, &mut la, &mut t, &mut clock);
        if op == 17_000 {
            d.free_all(&image, &mut la, &mut t);
        }
    }

    let s = la.stats();
    d.fold.words(&[s.best_fit_hits, s.splits, s.coalesces, s.decay_epochs]);
    let g = la.gauge();
    d.fold.words(&[
        g.active_slabs as u64,
        g.active_extents as u64,
        g.live_large_bytes,
        g.free_extents as u64,
        g.mapped_bytes,
        g.max_extent_end,
        g.booklog_live,
        g.booklog_dead,
    ]);
    d.fold.words(&[la.mapped_bytes() as u64, la.peak_mapped() as u64]);
    fold_flushes(&image, &t, &mut d.fold);
    non_zero_words(&image, &mut d.fold);
    assert!(s.best_fit_hits > 0 && s.splits > 0 && s.coalesces > 0 && s.decay_epochs > 0, "{s:?}");
    d.fold.0
}

#[test]
fn booklog_decisions_are_pinned() {
    assert_eq!(run(true), 5602448995203935902);
}

#[test]
fn in_place_decisions_are_pinned() {
    assert_eq!(run(false), 4223059959845259661);
}
