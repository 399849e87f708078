//! Seeded op-trace generation. Every trace is built in full before any
//! clock starts; the allocator only ever sees the generated ops.

use nvalloc::internals::HUGE_MIN;
use nvalloc::LARGE_MIN;

/// SplitMix64: small, fast, and reproducible from one `u64` seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Log-uniform in `lo..=hi`.
    pub fn log_uniform(&mut self, lo: usize, hi: usize) -> usize {
        let (l, h) = ((lo as f64).ln(), (hi as f64).ln());
        ((l + (h - l) * self.unit()).exp() as usize).clamp(lo, hi)
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    SmallLocal,
    LargeExtent,
    RemotePair,
    ShimChurn,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        Some(match s {
            "small_local" => Workload::SmallLocal,
            "large_extent" => Workload::LargeExtent,
            "remote_pair" => Workload::RemotePair,
            "shim_churn" => Workload::ShimChurn,
            _ => return None,
        })
    }

    pub fn threads(self) -> usize {
        if self == Workload::RemotePair {
            2
        } else {
            1
        }
    }

    /// Ops per round. A round replays the whole trace once, which takes
    /// 0.25–0.4 s of host time on a 2.1 GHz core (`large_extent`: 30 ms).
    /// The host metrics are medians over rounds, so a run needs dozens.
    /// `large_extent` stays at 10 000 ops, where the crash gate is clean
    /// on every seed tried. Longer extent churn at the shipped defaults
    /// loses live extents across a crash (see README.md).
    pub fn ops(self) -> usize {
        match self {
            Workload::SmallLocal => 600_000,
            Workload::LargeExtent => 10_000,
            Workload::RemotePair => 100_000,
            Workload::ShimChurn => 600_000,
        }
    }

    /// Pool bytes: room for the workload's peak plus metadata, and no more
    /// (every round formats a fresh pool, and recovery copies the image).
    pub fn pool_bytes(self) -> usize {
        match self {
            Workload::SmallLocal => 48 << 20,
            Workload::LargeExtent => 112 << 20,
            Workload::RemotePair => 64 << 20,
            Workload::ShimChurn => 48 << 20,
        }
    }
}

/// The layer boundary an op crosses, as seen from outside the allocator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Route {
    MallocSmall = 0,
    MallocLarge = 1,
    FreeSmallLocal = 2,
    FreeSmallRemote = 3,
    FreeLarge = 4,
}

pub const ROUTES: [Route; 5] = [
    Route::MallocSmall,
    Route::MallocLarge,
    Route::FreeSmallLocal,
    Route::FreeSmallRemote,
    Route::FreeLarge,
];

impl Route {
    pub fn name(self) -> &'static str {
        match self {
            Route::MallocSmall => "malloc_small",
            Route::MallocLarge => "malloc_large",
            Route::FreeSmallLocal => "free_small_local",
            Route::FreeSmallRemote => "free_small_remote",
            Route::FreeLarge => "free_large",
        }
    }

    fn malloc(size: usize) -> Route {
        if size < LARGE_MIN {
            Route::MallocSmall
        } else {
            Route::MallocLarge
        }
    }

    fn free(size: usize, remote: bool) -> Route {
        match (size < LARGE_MIN, remote) {
            (false, _) => Route::FreeLarge,
            (true, false) => Route::FreeSmallLocal,
            (true, true) => Route::FreeSmallRemote,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Malloc,
    Free,
    /// Pass the slot to the other worker, which frees it (a remote free).
    Handoff,
}

#[derive(Clone, Copy, Debug)]
pub struct Op {
    pub kind: Kind,
    /// Route of the allocator call this op makes (for a handoff, of the
    /// free the receiving worker makes).
    pub route: Route,
    /// Host latency of this op is sampled (seeded random gaps).
    pub sampled: bool,
    /// A malloc into a slot that was last handed off: the receiver may not
    /// have freed it yet, so the replay waits for the slot to read 0.
    pub after_handoff: bool,
    pub slot: u32,
    pub size: u32,
}

/// A generated workload: one op stream per worker plus what the replay
/// must leave behind.
pub struct Trace {
    pub streams: Vec<Vec<Op>>,
    /// Logical destination slots (spread one cache line apart on replay).
    pub slots: usize,
    /// Requested bytes of each slot at the end of the trace (0 = empty).
    pub final_live: Vec<u32>,
    /// Peak of requested live bytes over the trace (handoffs counted as
    /// freed when handed off).
    pub peak_live_bytes: u64,
    /// Allocator calls per route, all workers.
    pub route_ops: [u64; 5],
}

/// Seeded gaps between host-latency samples, uniform in 1..=127 (mean 64).
/// A fixed stride would alias with tcache refills, which come in batches.
struct Sampler {
    rng: Rng,
    left: u64,
}

impl Sampler {
    fn new(seed: u64) -> Sampler {
        let mut rng = Rng::new(seed ^ 0x5A3F_1E5D);
        let left = 1 + rng.below(127);
        Sampler { rng, left }
    }

    fn take(&mut self) -> bool {
        self.left -= 1;
        if self.left == 0 {
            self.left = 1 + self.rng.below(127);
            true
        } else {
            false
        }
    }
}

/// Builds one worker's stream while tracking slot occupancy.
struct StreamGen {
    ops: Vec<Op>,
    live: Vec<u32>,
    handed: Vec<bool>,
    live_bytes: u64,
    peak: u64,
    sampler: Sampler,
    route_ops: [u64; 5],
}

impl StreamGen {
    fn new(slots: usize, seed: u64, cap: usize) -> StreamGen {
        StreamGen {
            ops: Vec::with_capacity(cap),
            live: vec![0; slots],
            handed: vec![false; slots],
            live_bytes: 0,
            peak: 0,
            sampler: Sampler::new(seed),
            route_ops: [0; 5],
        }
    }

    fn push(&mut self, kind: Kind, route: Route, slot: usize, size: usize) {
        let after_handoff = kind == Kind::Malloc && std::mem::take(&mut self.handed[slot]);
        let sampled = self.sampler.take();
        self.route_ops[route as usize] += 1;
        self.ops.push(Op {
            kind,
            route,
            sampled,
            after_handoff,
            slot: slot as u32,
            size: size as u32,
        });
    }

    fn malloc(&mut self, slot: usize, size: usize) {
        debug_assert_eq!(self.live[slot], 0);
        self.push(Kind::Malloc, Route::malloc(size), slot, size);
        self.live[slot] = size as u32;
        self.live_bytes += size as u64;
        self.peak = self.peak.max(self.live_bytes);
    }

    fn free(&mut self, slot: usize, handoff: bool) {
        let size = self.live[slot] as usize;
        debug_assert!(size > 0);
        let kind = if handoff { Kind::Handoff } else { Kind::Free };
        self.push(kind, Route::free(size, handoff), slot, size);
        self.handed[slot] = handoff;
        self.live[slot] = 0;
        self.live_bytes -= size as u64;
    }
}

/// Build variant `variant` of the workload's trace for `seed`. A run
/// cycles through a few variants so that no single trace's quirks (the
/// 4 MiB granularity of mapped memory, above all) decide its figures.
pub fn generate(workload: Workload, seed: u64, variant: u64) -> Trace {
    let ops = workload.ops();
    let seed = Rng::new(seed ^ variant.wrapping_mul(0xD1B5_4A32_D192_ED03)).next();
    let (slots, gens) = match workload {
        Workload::SmallLocal => (SMALL_SLOTS, vec![small_local(seed, ops)]),
        Workload::LargeExtent => (LARGE_SLOTS, vec![large_extent(seed, ops)]),
        Workload::ShimChurn => (SHIM_SLOTS, vec![shim_churn(seed, ops)]),
        Workload::RemotePair => {
            (2 * PAIR_SLOTS, (0..2).map(|k| remote_pair(seed, k, ops / 2)).collect())
        }
    };
    let mut trace = Trace {
        streams: Vec::new(),
        slots,
        final_live: Vec::new(),
        peak_live_bytes: 0,
        route_ops: [0; 5],
    };
    for (k, mut b) in gens.into_iter().enumerate() {
        // Remote-pair workers own disjoint slot halves.
        let base = if workload == Workload::RemotePair { k * PAIR_SLOTS } else { 0 };
        for op in &mut b.ops {
            op.slot += base as u32;
        }
        trace.streams.push(b.ops);
        trace.final_live.extend(b.live);
        trace.peak_live_bytes += b.peak;
        for (sum, n) in trace.route_ops.iter_mut().zip(b.route_ops) {
            *sum += n;
        }
    }
    trace
}

/// Logical slots: the 65 536 default roots spread one cache line apart.
const SMALL_SLOTS: usize = 8192;
/// Slots `0..BURST_SLOTS` take Threadtest-style bursts; the rest churn.
const BURST_SLOTS: usize = 256;

/// Before the shift: mostly 1–8 KiB objects, so the churn set spans
/// hundreds of slabs holding 8–64 blocks each.
fn small_size_a(rng: &mut Rng) -> usize {
    if rng.unit() < 0.9 {
        rng.log_uniform(1024, 8192)
    } else {
        rng.log_uniform(16, 16 << 10)
    }
}

/// After the shift: mostly small classes, which morph the sparse slabs
/// the deletions left behind.
fn small_size_b(rng: &mut Rng) -> usize {
    if rng.unit() < 0.85 {
        rng.log_uniform(16, 512)
    } else {
        rng.log_uniform(512, 16 << 10)
    }
}

/// Threadtest bursts take small blocks in both phases.
fn burst_size(rng: &mut Rng) -> usize {
    rng.log_uniform(16, 256)
}

/// Threadtest bursts plus Larson churn; halfway, 90 % of the churn set is
/// deleted and the size mix shifts to other classes (Fragbench W3), so
/// slab carve and morph run.
fn small_local(seed: u64, n: usize) -> StreamGen {
    let mut rng = Rng::new(seed);
    let mut b = StreamGen::new(SMALL_SLOTS, seed, n + SMALL_SLOTS);
    let mut shifted = false;
    while b.ops.len() < n {
        if !shifted && b.ops.len() >= n / 2 {
            shifted = true;
            for slot in BURST_SLOTS..SMALL_SLOTS {
                if b.live[slot] > 0 && rng.unit() < 0.9 {
                    b.free(slot, false);
                }
            }
        }
        if rng.below(8) == 0 {
            let k = 16 + rng.below((BURST_SLOTS - 16) as u64) as usize;
            for slot in 0..k {
                let size = burst_size(&mut rng);
                b.malloc(slot, size);
            }
            for slot in 0..k {
                b.free(slot, false);
            }
        } else {
            let slot = BURST_SLOTS + rng.below((SMALL_SLOTS - BURST_SLOTS) as u64) as usize;
            if b.live[slot] > 0 {
                b.free(slot, false);
            } else {
                let size = if shifted { small_size_b(&mut rng) } else { small_size_a(&mut rng) };
                b.malloc(slot, size);
            }
        }
    }
    b
}

const LARGE_SLOTS: usize = 1024;
/// Requested live-bytes cap: ten 4 MiB regions' worth.
const LARGE_LIVE_CAP: u64 = 40 << 20;

/// Random extent churn from `LARGE_MIN` past `HUGE_MIN` under a live cap.
fn large_extent(seed: u64, n: usize) -> StreamGen {
    let mut rng = Rng::new(seed);
    let mut b = StreamGen::new(LARGE_SLOTS, seed, n);
    while b.ops.len() < n {
        let slot = rng.below(LARGE_SLOTS as u64) as usize;
        if b.live[slot] > 0 {
            b.free(slot, false);
            continue;
        }
        let size = if rng.unit() < 0.85 {
            rng.log_uniform(LARGE_MIN, 256 << 10)
        } else {
            rng.log_uniform(256 << 10, 2 * HUGE_MIN)
        };
        if b.live_bytes + size as u64 <= LARGE_LIVE_CAP {
            b.malloc(slot, size);
        } else {
            // Over the cap: free the next live slot instead.
            let victim = (1..LARGE_SLOTS)
                .map(|d| (slot + d) % LARGE_SLOTS)
                .find(|&s| b.live[s] > 0)
                .expect("cap reached with nothing live");
            b.free(victim, false);
        }
    }
    b
}

/// Slots per remote-pair worker.
const PAIR_SLOTS: usize = 4096;
/// Share of frees handed to the other worker.
const REMOTE_FREE_SHARE: f64 = 0.4;
/// Own ops before a handed-off slot may be reused.
const HANDOFF_COOLDOWN: usize = 1024;

/// Larson churn on two workers; a fixed 40 % of frees are handed to the
/// other worker, about 5 % of allocations are large.
fn remote_pair(seed: u64, k: usize, n: usize) -> StreamGen {
    let stream_seed = seed ^ ((k as u64 + 1) << 40);
    let mut rng = Rng::new(stream_seed);
    let mut b = StreamGen::new(PAIR_SLOTS, stream_seed, n);
    let mut cooling = std::collections::VecDeque::new();
    let mut busy = vec![false; PAIR_SLOTS];
    while b.ops.len() < n {
        while cooling.front().is_some_and(|&(at, _)| at + HANDOFF_COOLDOWN <= b.ops.len()) {
            let (_, slot) = cooling.pop_front().unwrap();
            busy[slot] = false;
        }
        let slot = rng.below(PAIR_SLOTS as u64) as usize;
        if busy[slot] {
            continue;
        }
        if b.live[slot] > 0 {
            let handoff = rng.unit() < REMOTE_FREE_SHARE;
            b.free(slot, handoff);
            if handoff {
                busy[slot] = true;
                cooling.push_back((b.ops.len(), slot));
            }
        } else {
            let size = if rng.unit() < 0.05 {
                rng.log_uniform(20 << 10, 72 << 10)
            } else {
                rng.log_uniform(16, 1024)
            };
            b.malloc(slot, size);
        }
    }
    b
}

/// The shim's slots are the benchmark's own pointer array. Above this
/// size the live set reaches the large-extent crash bug the README
/// describes.
const SHIM_SLOTS: usize = 8192;

/// `nv_malloc`/`nv_free` churn with the `fig_global` size mix: 95 %
/// 16–2 048 B, 5 % 4–32 KiB.
fn shim_churn(seed: u64, n: usize) -> StreamGen {
    let mut rng = Rng::new(seed);
    let mut b = StreamGen::new(SHIM_SLOTS, seed, n);
    while b.ops.len() < n {
        let slot = rng.below(SHIM_SLOTS as u64) as usize;
        if b.live[slot] > 0 {
            b.free(slot, false);
        } else {
            let size = if rng.unit() < 0.95 {
                16 + rng.below(2048 - 16) as usize
            } else {
                (4 << 10) + rng.below((32 << 10) - (4 << 10)) as usize
            };
            b.malloc(slot, size);
        }
    }
    b
}
