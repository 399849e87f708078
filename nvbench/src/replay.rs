//! Closed-loop replay of a generated trace through the allocator's public
//! APIs: `NvAllocator`/`NvThread` for the native workloads, the C-ABI
//! `nv_*` shim for `shim_churn`. Each worker issues its next op when the
//! previous one returns.

use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use nvalloc::api::{AllocThread, PmAllocator};
use nvalloc::global::{self, nv_free, nv_malloc};
use nvalloc::telemetry::MetricsSnapshot;
use nvalloc::{NvAllocator, NvConfig};
use nvalloc_pmem::{CrashImage, PmOffset, PmemConfig, PmemPool, StatsSnapshot};

use crate::gen::{Kind, Op, Route, Trace};

/// Destination slots sit one cache line apart (8 roots of 8 B), so the
/// numbers count the allocator's reflushes and not the application's.
pub const SLOT_STRIDE: u64 = 64;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Untraced: host latency of sampled ops, modelled delta of every op.
    Timed,
    /// One span per op (host and modelled start and end).
    Traced,
    /// Correctness replay on a crash-tracked pool; nothing is timed.
    Gate,
}

/// One op's span. Host times are ns since the round started; modelled
/// times are the worker's virtual clock.
#[derive(Clone, Copy)]
pub struct Span {
    pub route: Route,
    pub worker: u8,
    pub op: u32,
    pub host: (u64, u64),
    pub pm: (u64, u64),
}

/// What one worker recorded.
#[derive(Default)]
pub struct Sink {
    pub ops: u64,
    pub failed: u64,
    /// Host ns of sampled ops, with their route.
    pub host: Vec<(Route, u32)>,
    /// Modelled ns of every op.
    pub pm: Vec<u32>,
    pub spans: Vec<Span>,
    pub virtual_ns: u64,
}

/// Everything a round leaves for the report.
pub struct Round {
    pub wall_ns: u64,
    pub sinks: Vec<Sink>,
    pub stats: StatsSnapshot,
    pub metrics: MetricsSnapshot,
    pub peak_mapped: usize,
    pub image: Option<CrashImage>,
}

impl Round {
    pub fn ops(&self) -> u64 {
        self.sinks.iter().map(|s| s.ops).sum()
    }

    pub fn failed(&self) -> u64 {
        self.sinks.iter().map(|s| s.failed).sum()
    }

    pub fn virtual_ns(&self) -> u64 {
        self.sinks.iter().map(|s| s.virtual_ns).sum()
    }
}

/// Bytes at the start of a fresh pool that are read before the allocator
/// is created: its metadata area (booklog, roots, WAL) is about 5 MiB.
const WARM_BYTES: usize = 8 << 20;

/// A fresh pool, its first `WARM_BYTES` read once, a word per cache line.
/// Creation rewrites that area; read first, it is in cache whatever the
/// previous round left there. Left cold, `NvAllocator::create` on
/// `large_extent` moved by 50 % between host phases in which the
/// reference-divided replay time moved by 3 %.
pub fn pool(bytes: usize, crash_tracking: bool) -> Arc<PmemPool> {
    let p = PmemPool::new(PmemConfig::default().pool_size(bytes).crash_tracking(crash_tracking));
    let sum =
        (0..bytes.min(WARM_BYTES) as u64).step_by(64).fold(0u64, |a, off| a ^ p.read_u64(off));
    std::hint::black_box(sum);
    p
}

/// Modelled ns the pool has attributed: per-kind flush ns plus fences at
/// the model's fence cost. At one thread this equals the worker's clock.
pub fn attributed_ns(pool: &PmemPool) -> u64 {
    let s = pool.stats().snapshot();
    s.kind_ns.iter().sum::<u64>() + s.fences * pool.model().params().fence_ns
}

/// Remote-free message: slot, route and sampling bit packed in a word.
const DONE: u64 = u64::MAX;

fn pack(op: &Op) -> u64 {
    op.slot as u64 | (op.route as u64) << 32 | (op.sampled as u64) << 40
}

fn unpack(m: u64) -> (u32, Route, bool) {
    let route = if (m >> 32) & 0xff == Route::FreeLarge as u64 {
        Route::FreeLarge
    } else {
        Route::FreeSmallRemote
    };
    (m as u32, route, (m >> 40) & 1 == 1)
}

struct Worker<'a> {
    id: u8,
    t: Box<dyn AllocThread>,
    pool: &'a PmemPool,
    slots: PmOffset,
    mode: Mode,
    origin: Instant,
    sink: Sink,
    link: Option<(SyncSender<u64>, Receiver<u64>)>,
    peer_done: bool,
}

impl Worker<'_> {
    fn dest(&self, slot: u32) -> PmOffset {
        self.slots + slot as u64 * SLOT_STRIDE
    }

    fn host_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Make one allocator call and record it as `mode` asks.
    #[inline(always)]
    fn call(
        &mut self,
        route: Route,
        sampled: bool,
        op: u32,
        malloc: Option<usize>,
        dest: PmOffset,
    ) {
        let pm0 = self.t.pm().virtual_ns();
        let (h0, ok) = match self.mode {
            Mode::Traced => (self.host_ns(), self.invoke(malloc, dest)),
            Mode::Timed if sampled => {
                let at = Instant::now();
                let ok = self.invoke(malloc, dest);
                self.sink.host.push((route, at.elapsed().as_nanos() as u32));
                (0, ok)
            }
            _ => (0, self.invoke(malloc, dest)),
        };
        let pm1 = self.t.pm().virtual_ns();
        if self.mode == Mode::Traced {
            let host = (h0, self.host_ns());
            self.sink.spans.push(Span { route, worker: self.id, op, host, pm: (pm0, pm1) });
        }
        self.sink.pm.push((pm1 - pm0) as u32);
        self.sink.ops += 1;
        self.sink.failed += !ok as u64;
    }

    #[inline(always)]
    fn invoke(&mut self, malloc: Option<usize>, dest: PmOffset) -> bool {
        match malloc {
            Some(size) => match self.t.malloc_to(size, dest) {
                // The gate also checks the slot names the returned block.
                Ok(b) => self.mode != Mode::Gate || self.pool.read_u64(dest) == b,
                Err(_) => false,
            },
            None => self.t.free_from(dest).is_ok(),
        }
    }

    /// Free what the other worker handed over. `block` waits for at least
    /// one message (or the peer's end marker).
    fn drain(&mut self, block: bool) {
        let Some((_, rx)) = &self.link else { return };
        let mut next = if block { rx.recv().ok() } else { rx.try_recv().ok() };
        while let Some(m) = next {
            if m == DONE {
                self.peer_done = true;
                return;
            }
            let (slot, route, sampled) = unpack(m);
            self.call(route, sampled, slot, None, self.dest(slot));
            let (_, rx) = self.link.as_ref().expect("linked");
            next = rx.try_recv().ok();
        }
    }

    /// Hand a message to the peer, draining our own inbox while its
    /// channel is full: a handoff blocks, it never falls back to a local
    /// free.
    fn send(&mut self, m: u64) {
        loop {
            let (tx, _) = self.link.as_ref().expect("handoff needs a peer");
            match tx.try_send(m) {
                Ok(()) => return,
                Err(TrySendError::Full(_)) => {
                    self.drain(false);
                    std::thread::yield_now();
                }
                Err(TrySendError::Disconnected(_)) => panic!("peer worker exited early"),
            }
        }
    }

    fn run(&mut self, stream: &[Op]) {
        for (i, op) in stream.iter().enumerate() {
            self.drain(false);
            let dest = self.dest(op.slot);
            match op.kind {
                Kind::Malloc => {
                    // The peer may not have freed a handed-off slot yet.
                    while op.after_handoff && self.pool.read_u64(dest) != 0 {
                        self.drain(false);
                        std::thread::yield_now();
                    }
                    self.call(op.route, op.sampled, i as u32, Some(op.size as usize), dest);
                }
                Kind::Free => self.call(op.route, op.sampled, i as u32, None, dest),
                Kind::Handoff => self.send(pack(op)),
            }
        }
        if self.link.is_some() {
            self.send(DONE);
            while !self.peer_done {
                self.drain(true);
            }
        }
        self.sink.virtual_ns = self.t.pm().virtual_ns();
    }
}

/// Format a fresh pool of `pool_bytes` and create an allocator on it.
/// Also returns the host seconds of `NvAllocator::create` alone.
pub fn make_native(pool_bytes: usize, cfg: NvConfig, crash_tracking: bool) -> (NvAllocator, f64) {
    let pool = pool(pool_bytes, crash_tracking);
    let t0 = Instant::now();
    let alloc = NvAllocator::create(pool, cfg).expect("allocator create");
    (alloc, t0.elapsed().as_secs_f64())
}

/// Replay `trace` on `alloc`. In `Mode::Gate` the round ends with a power
/// failure: the image is taken while every worker handle is still alive
/// (no quiesce, no exit, no tcache flush).
pub fn replay_native(trace: &Trace, alloc: &NvAllocator, mode: Mode) -> Round {
    let pool = alloc.pool().as_ref();
    let slots = alloc.root_offset(0);
    assert!(
        trace.slots * 8 <= alloc.root_count(),
        "trace needs {} spread slots, allocator has {} roots",
        trace.slots,
        alloc.root_count()
    );
    let workers = trace.streams.len();
    let mut links: Vec<Option<(SyncSender<u64>, Receiver<u64>)>> = if workers == 2 {
        let (tx0, rx0) = sync_channel(1024);
        let (tx1, rx1) = sync_channel(1024);
        vec![Some((tx1, rx0)), Some((tx0, rx1))]
    } else {
        vec![None]
    };
    let origin = Instant::now();
    let make = |id: usize, link| Worker {
        id: id as u8,
        t: alloc.thread(),
        pool,
        slots,
        mode,
        origin,
        sink: Sink { pm: Vec::with_capacity(trace.streams[id].len() * 3 / 2), ..Sink::default() },
        link,
        peer_done: false,
    };
    pool.stats().reset();
    let m0 = alloc.metrics();
    let (wall_ns, done): (u64, Vec<Worker>) = if workers == 1 {
        let mut w = make(0, links.pop().unwrap());
        w.t.pm_mut().reset_clock();
        let start = Instant::now();
        w.run(&trace.streams[0]);
        (start.elapsed().as_nanos() as u64, vec![w])
    } else {
        let barrier = Barrier::new(workers);
        let outs: Vec<(Instant, Instant, Worker)> = std::thread::scope(|s| {
            let handles: Vec<_> = links
                .drain(..)
                .enumerate()
                .map(|(id, link)| {
                    let barrier = &barrier;
                    let make = &make;
                    s.spawn(move || {
                        pin_to_cpu(id);
                        let mut w = make(id, link);
                        w.t.pm_mut().reset_clock();
                        barrier.wait();
                        let start = Instant::now();
                        w.run(&trace.streams[id]);
                        (start, Instant::now(), w)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
        });
        let start = outs.iter().map(|o| o.0).min().unwrap();
        let end = outs.iter().map(|o| o.1).max().unwrap();
        (end.duration_since(start).as_nanos() as u64, outs.into_iter().map(|o| o.2).collect())
    };
    let stats = pool.stats().snapshot();
    let metrics = alloc.metrics().since(&m0);
    let image = (mode == Mode::Gate).then(|| pool.crash());
    let sinks = done.into_iter().map(|w| w.sink).collect();
    Round { wall_ns, sinks, stats, metrics, peak_mapped: alloc.peak_mapped_bytes(), image }
}

/// Pin the calling thread to the `k`-th CPU the process may use, so the
/// two workers always run in parallel on distinct cores; left to the
/// scheduler they sometimes share one core, which changes the host figures
/// threefold from run to run. No-op with fewer CPUs than `k + 1`.
pub fn pin_to_cpu(k: usize) {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
            fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
        }
        let mut allowed = [0u64; 16];
        let size = std::mem::size_of_val(&allowed);
        // SAFETY: both calls read or write exactly `size` bytes of a local
        // mask array. Pid 0 is the calling thread, which is fresh and
        // inherits the process's mask.
        if unsafe { sched_getaffinity(0, size, allowed.as_mut_ptr()) } != 0 {
            return;
        }
        let Some(cpu) = (0..size * 8).filter(|&c| allowed[c / 64] >> (c % 64) & 1 == 1).nth(k)
        else {
            return;
        };
        let mut mask = [0u64; 16];
        mask[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: as above.
        unsafe { sched_setaffinity(0, size, mask.as_ptr()) };
    }
}

/// Install a fresh pool behind the process-wide `nv_*` shim. Also returns
/// the host seconds of `global::init` alone.
pub fn make_shim(pool_bytes: usize, cfg: NvConfig, crash_tracking: bool) -> (Arc<PmemPool>, f64) {
    let p = pool(pool_bytes, crash_tracking);
    let t0 = Instant::now();
    global::init(Arc::clone(&p), cfg).expect("global init");
    (p, t0.elapsed().as_secs_f64())
}

/// Detach the shim's heap and release it.
pub fn end_shim() {
    global::shutdown().expect("global shutdown");
    // SAFETY: the replay is single-threaded and every pointer the retired
    // heaps handed out is dropped with the round; nothing touches them
    // again.
    unsafe { global::reset_unchecked() };
}

/// Replay `trace` through `nv_malloc`/`nv_free`. The shim's `PmThread`
/// is internal, so modelled per-op deltas come from the pool's attributed
/// ns ([`attributed_ns`]) and are taken only in the traced and gate
/// replays, where the extra counter reads do not distort host timing.
pub fn replay_shim(trace: &Trace, pool: &PmemPool, mode: Mode) -> (Round, Vec<usize>) {
    let origin = Instant::now();
    let host_ns = || origin.elapsed().as_nanos() as u64;
    let mut ptrs = vec![0usize; trace.slots];
    let mut sink = Sink {
        pm: Vec::with_capacity(if mode == Mode::Timed { 0 } else { trace.streams[0].len() }),
        ..Sink::default()
    };
    pool.stats().reset();
    let m0 = global::with_allocator(|a| a.metrics()).expect("shim initialised");
    let start = Instant::now();
    for (i, op) in trace.streams[0].iter().enumerate() {
        let slot = op.slot as usize;
        let pm0 = if mode == Mode::Timed { 0 } else { attributed_ns(pool) };
        let h0 = if mode == Mode::Traced || op.sampled { host_ns() } else { 0 };
        let ok = match op.kind {
            Kind::Malloc => {
                ptrs[slot] = nv_malloc(op.size as usize) as usize;
                ptrs[slot] != 0
            }
            _ => {
                let p = std::mem::take(&mut ptrs[slot]);
                nv_free(p as *mut core::ffi::c_void);
                p != 0
            }
        };
        sink.ops += 1;
        sink.failed += !ok as u64;
        match mode {
            Mode::Timed => {
                if op.sampled {
                    sink.host.push((op.route, (host_ns() - h0) as u32));
                }
            }
            Mode::Traced | Mode::Gate => {
                let pm1 = attributed_ns(pool);
                sink.pm.push((pm1 - pm0) as u32);
                sink.virtual_ns = pm1;
                if mode == Mode::Traced {
                    let host = (h0, host_ns());
                    sink.spans.push(Span {
                        route: op.route,
                        worker: 0,
                        op: i as u32,
                        host,
                        pm: (pm0, pm1),
                    });
                }
            }
        }
    }
    let wall_ns = start.elapsed().as_nanos() as u64;
    let stats = pool.stats().snapshot();
    let (metrics, peak_mapped) =
        global::with_allocator(|a| (a.metrics().since(&m0), a.peak_mapped_bytes())).unwrap();
    let image = (mode == Mode::Gate).then(|| pool.crash());
    let round = Round { wall_ns, sinks: vec![sink], stats, metrics, peak_mapped, image };
    (round, ptrs)
}
