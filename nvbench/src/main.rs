//! nvbench: the NVAlloc benchmark. One command runs one named workload
//! from a seed and prints every metric with its unit and sample count.
//!
//! ```text
//! nvbench --workload <small_local|large_extent|remote_pair|shim_churn>
//!         --seed <n> --seconds <s> --trace <0|1> [--spans <file>]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of untraced rounds; `--trace 1`
//! prints the per-layer ledger of a traced run. The last stdout line is
//! one JSON object; the exit code is non-zero when any output is wrong.
//! See `README.md` beside this crate for every metric's definition.

mod gen;
mod ledger;
mod reference;
mod replay;

use std::sync::Arc;
use std::time::Instant;

use nvalloc::api::PmAllocator;
use nvalloc::doctor::audit_pool;
use nvalloc::global;
use nvalloc::{NvAllocator, NvConfig, RecoveryReport};
use nvalloc_pmem::{PmemConfig, PmemPool};

use gen::{Trace, Workload};
use ledger::{quantile, Metrics};
use reference::reference_ns;
use replay::{Mode, Round, SLOT_STRIDE};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<String>,
}

fn usage(msg: &str) -> ! {
    eprintln!("nvbench: {msg}");
    eprintln!(
        "usage: nvbench --workload <small_local|large_extent|remote_pair|shim_churn> \
         --seed <n> --seconds <s> --trace <0|1> [--spans <file>]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut a =
        Args { workload: Workload::SmallLocal, seed: 1, seconds: 10.0, trace: false, spans: None };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let Some(v) = it.next() else { usage(&format!("{flag} needs a value")) };
        let num = |v: &str| {
            v.parse::<f64>().unwrap_or_else(|_| usage(&format!("bad number for {flag}: {v}")))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&v).unwrap_or_else(|| usage(&format!("unknown workload {v}"))),
                )
            }
            "--seed" => a.seed = v.parse().unwrap_or_else(|_| usage(&format!("bad seed {v}"))),
            "--seconds" => a.seconds = num(&v),
            "--trace" => a.trace = num(&v) != 0.0,
            "--spans" => a.spans = Some(v),
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    a.workload = workload.unwrap_or_else(|| usage("--workload is required"));
    a
}

/// The allocator under test: a native handle or the process-wide shim.
enum Engine {
    Native(NvAllocator),
    Shim(Arc<PmemPool>),
}

impl Engine {
    /// A fresh pool and allocator, and the host seconds the allocator's
    /// own creation took (`NvAllocator::create` or `global::init`).
    fn new(w: Workload, cfg: NvConfig, crash_tracking: bool) -> (Engine, f64) {
        match w {
            Workload::ShimChurn => {
                let (p, s) = replay::make_shim(w.pool_bytes(), cfg, crash_tracking);
                (Engine::Shim(p), s)
            }
            _ => {
                let (a, s) = replay::make_native(w.pool_bytes(), cfg, crash_tracking);
                (Engine::Native(a), s)
            }
        }
    }

    fn replay(&self, trace: &Trace, mode: Mode) -> Round {
        match self {
            Engine::Native(a) => replay::replay_native(trace, a, mode),
            Engine::Shim(p) => replay::replay_shim(trace, p, mode).0,
        }
    }

    fn close(self) {
        if let Engine::Shim(_) = self {
            replay::end_shim();
        }
    }
}

/// Set-up of one round: trace generation, pool and allocator creation.
/// Only the allocator's creation is timed; the trace and the emulated
/// pool are the benchmark's own inputs.
fn setup(a: &Args, variant: u64, cfg: NvConfig) -> (Trace, Engine, f64) {
    let trace = gen::generate(a.workload, a.seed, variant);
    let (engine, create_s) = Engine::new(a.workload, cfg, false);
    (trace, engine, create_s)
}

/// Trace variants per run; round `i` replays variant `i % VARIANTS`. The
/// modelled metrics and `space_amp` come from the first round of each
/// variant, so they are identical across same-seed runs at one thread.
/// Mapped memory grows in 4 MiB regions, so one variant's `space_amp`
/// can sit a region above another's; 16 variants average that out.
const VARIANTS: usize = 16;
/// Variants that first pass the crash gate, whose images feed the timed
/// recoveries.
const GATED: usize = 4;
/// Rounds run until the measured replay time reaches `--seconds`.
const MAX_ROUNDS: usize = 256;
/// Timed recoveries of each variant's crash image.
const RECOVERIES_PER_IMAGE: usize = 8;
/// Host ns per reference op on a quiet core of the 2.1 GHz Xeon host this
/// benchmark was built on. `setup_s` is scaled to a host this fast.
const NOMINAL_REF_NS: f64 = 150.0;

/// The quietest quarter of each variant's rounds (by host throughput, at
/// least one per variant). Other tenants of the host slow it in phases
/// lasting seconds; the raw host metrics come from the rounds they
/// disturbed least, with every variant weighted alike.
fn quiet(rounds: &[Round]) -> Vec<&Round> {
    let mut out = Vec::new();
    for v in 0..VARIANTS {
        let mut mine: Vec<&Round> = rounds.iter().skip(v).step_by(VARIANTS).collect();
        mine.sort_by(|a, b| mops(b).total_cmp(&mops(a)));
        out.extend(mine.iter().take(mine.len().div_ceil(4)));
    }
    out
}

fn mops(r: &Round) -> f64 {
    r.ops() as f64 / r.wall_ns as f64 * 1e3
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// What the crash → recover → check gate found.
struct Gate {
    problems: Vec<String>,
    ops: u64,
    failed: u64,
    report: RecoveryReport,
    audit_ms: f64,
    recover_ms: f64,
    /// The crash image, as words (fresh copies feed the timed recoveries).
    words: Vec<u64>,
    /// The gate replay's own round (modelled per-op deltas for the shim).
    round: Round,
}

/// Replay the trace on a crash-tracked pool, crash with every worker
/// still alive, recover, and check the heap against the trace.
fn gate(a: &Args, trace: &Trace, spans: Option<&mut Vec<ledger::RootSpan>>) -> Gate {
    let mut problems = Vec::new();
    let (engine, _) = Engine::new(a.workload, NvConfig::log(), true);
    let (mut round, shim_live) = match &engine {
        Engine::Native(alloc) => (replay::replay_native(trace, alloc, Mode::Gate), None),
        Engine::Shim(p) => {
            let (round, ptrs) = replay::replay_shim(trace, p, Mode::Gate);
            let live = shim_expect(&mut problems, trace, &ptrs, p.base_ptr() as usize);
            (round, Some(live))
        }
    };
    let (ops, failed) = (round.ops(), round.failed());
    let words = round.image.take().expect("gate crashes").words().to_vec();
    engine.close();

    let pool = PmemPool::from_words(words.clone(), PmemConfig::default());
    let t0 = Instant::now();
    let (alloc, report) = match NvAllocator::recover(Arc::clone(&pool), NvConfig::log()) {
        Ok(r) => r,
        Err(e) => {
            problems.push(format!("recover failed: {e}"));
            let report = RecoveryReport::default();
            return Gate {
                problems,
                ops,
                failed,
                report,
                audit_ms: 0.0,
                recover_ms: 0.0,
                words,
                round,
            };
        }
    };
    let recover_ms = t0.elapsed().as_secs_f64() * 1e3;
    match shim_live {
        Some(live) => check_shim_recovered(&mut problems, live, &words, NvConfig::log()),
        None => check_slots(&mut problems, trace, &alloc, &pool),
    }
    let t1 = Instant::now();
    let doctor = audit_pool(&pool, alloc.config());
    let audit_ms = t1.elapsed().as_secs_f64() * 1e3;
    for v in doctor.violations.iter().take(5) {
        problems.push(format!("audit_pool: {}: {}", v.check, v.detail));
    }
    if let Some(spans) = spans {
        // Root spans, in host ns since recovery started.
        let at = |t: Instant| t.duration_since(t0).as_nanos() as u64;
        spans.push(ledger::RootSpan {
            name: "recover",
            host: (at(t0), at(t0) + (recover_ms * 1e6) as u64),
        });
        spans.push(ledger::RootSpan {
            name: "audit_pool",
            host: (at(t1), at(t1) + (audit_ms * 1e6) as u64),
        });
    }
    Gate { problems, ops, failed, report, audit_ms, recover_ms, words, round }
}

/// Every slot the trace left live holds a block `usable_size` covers,
/// every other slot reads 0, and no two live blocks overlap.
fn check_slots(problems: &mut Vec<String>, trace: &Trace, alloc: &NvAllocator, pool: &PmemPool) {
    let base = alloc.root_offset(0);
    let mut live = Vec::new();
    for (slot, &want) in trace.final_live.iter().enumerate() {
        let block = pool.read_u64(base + slot as u64 * SLOT_STRIDE);
        if want == 0 {
            if block != 0 {
                problems.push(format!("slot {slot}: freed by the trace but reads {block:#x}"));
            }
            continue;
        }
        match (block, alloc.usable_size(block)) {
            (0, _) => problems.push(format!("slot {slot}: live in the trace but reads 0")),
            (_, Some(u)) if u >= want as usize => live.push((block, want as u64)),
            (_, u) => problems.push(format!("slot {slot}: block {block:#x} usable {u:?} < {want}")),
        }
    }
    check_disjoint(problems, &mut live);
}

fn check_disjoint(problems: &mut Vec<String>, live: &mut [(u64, u64)]) {
    live.sort_unstable();
    for w in live.windows(2) {
        if w[0].0 + w[0].1 > w[1].0 {
            problems.push(format!("blocks {:#x} and {:#x} overlap", w[0].0, w[1].0));
        }
    }
}

/// Shim gate, before the crash: the live pointers must be exactly the
/// trace's live slots. Returns them as (pool offset, requested bytes).
fn shim_expect(
    problems: &mut Vec<String>,
    trace: &Trace,
    ptrs: &[usize],
    base: usize,
) -> Vec<(u64, u64)> {
    let mut live = Vec::new();
    for (slot, (&p, &want)) in ptrs.iter().zip(&trace.final_live).enumerate() {
        if (p != 0) != (want != 0) {
            problems.push(format!("shim slot {slot}: pointer {p:#x} but trace size {want}"));
        } else if p != 0 {
            live.push(((p - base) as u64, want as u64));
        }
    }
    live
}

/// Shim gate, after the crash: attach the shim to a copy of the image;
/// exactly the live objects come back, each at least as large as requested.
fn check_shim_recovered(
    problems: &mut Vec<String>,
    mut want: Vec<(u64, u64)>,
    words: &[u64],
    cfg: NvConfig,
) {
    let pool = PmemPool::from_words(words.to_vec(), PmemConfig::default());
    if let Err(e) = global::init(Arc::clone(&pool), cfg) {
        problems.push(format!("shim attach failed: {e}"));
        return;
    }
    let base = pool.base_ptr() as usize;
    let mut got: Vec<(u64, u64)> = global::recovered_objects()
        .into_iter()
        .map(|(p, n)| ((p as usize - base) as u64, n as u64))
        .collect();
    replay::end_shim();
    got.sort_unstable();
    want.sort_unstable();
    if got.len() != want.len() {
        problems.push(format!("shim: recovered {} objects, expected {}", got.len(), want.len()));
    }
    if let Some((g, w)) = got.iter().zip(&want).find(|(g, w)| g.0 != w.0 || g.1 < w.1) {
        problems
            .push(format!("shim: recovered {:#x}+{} where {:#x}+{} was live", g.0, g.1, w.0, w.1));
    }
    check_disjoint(problems, &mut got);
}

/// Host ms of one `NvAllocator::recover` on a fresh copy of the crash
/// image (the copy is not timed).
fn time_recovery(words: &[u64], cfg: &NvConfig) -> f64 {
    let pool = PmemPool::from_words(words.to_vec(), PmemConfig::default());
    let t0 = Instant::now();
    let r = NvAllocator::recover(pool, cfg.clone());
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    drop(r);
    ms
}

/// Median of the smallest quarter of `v` (at least two values): the
/// samples other tenants of the host disturbed least.
fn quiet_median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = (v.len() / 4).max(2).min(v.len());
    median(&mut v[..n])
}

fn untraced(a: &Args) -> (Metrics, bool, u64, u64) {
    let threads = a.workload.threads();
    let cfg = NvConfig::log();
    // The first variants pass the gate. Each crash image is then
    // recovered again and again, timed: recovery work varies with the
    // image by up to 40 % between seeds, so one image would let the seed
    // decide the figure.
    let mut gates = Vec::new();
    let mut recov = Vec::new();
    let mut recov_refs = Vec::new();
    for v in 0..GATED as u64 {
        let mut g = gate(a, &gen::generate(a.workload, a.seed, v), None);
        report_gate(&g);
        // Recovery runs on this thread; bracket each with reference passes.
        let mut before = reference_ns(1);
        for _ in 0..RECOVERIES_PER_IMAGE {
            let ms = time_recovery(&g.words, &cfg);
            let after = reference_ns(1);
            recov.push(ms);
            recov_refs.push(ms * 1e3 / ((before + after) / 2.0));
            before = after;
        }
        g.words = Vec::new();
        gates.push(g);
    }

    let mut rounds = Vec::new();
    let mut peak_live = Vec::new();
    let mut setups = Vec::new();
    // A round's host time divided by the mean of the reference passes
    // timed just before and just after it.
    let mut op_refs = Vec::new();
    let mut before = reference_ns(threads);
    let mut measured = 0.0;
    while rounds.len() < VARIANTS || (measured < a.seconds && rounds.len() < MAX_ROUNDS) {
        let (trace, engine, create_s) = setup(a, (rounds.len() % VARIANTS) as u64, cfg.clone());
        let mut r = engine.replay(&trace, Mode::Timed);
        engine.close();
        let after = reference_ns(threads);
        let around = (before + after) / 2.0;
        op_refs.push(r.wall_ns as f64 / r.ops() as f64 / around);
        setups.push(create_s * NOMINAL_REF_NS / around);
        before = after;
        measured += r.wall_ns as f64 / 1e9;
        if rounds.len() < VARIANTS {
            peak_live.push(trace.peak_live_bytes);
        } else {
            for s in &mut r.sinks {
                s.pm = Vec::new();
            }
        }
        rounds.push(r);
    }

    let mut m = Metrics::default();
    let quiet = quiet(&rounds);
    let q_ops: u64 = quiet.iter().map(|r| r.ops()).sum();
    let q_wall = quiet.iter().map(|r| r.wall_ns).sum::<u64>() as f64;
    m.push("host_mops", q_ops as f64 / q_wall * 1e3, "Mops/s", quiet.len() as u64);
    let mut host: Vec<u32> = quiet
        .iter()
        .flat_map(|r| r.sinks.iter().flat_map(|s| s.host.iter().map(|h| h.1)))
        .collect();
    host.sort_unstable();
    m.push("host_p50_ns", quantile(&host, 0.50), "ns", host.len() as u64);
    m.push("host_p99_ns", quantile(&host, 0.99), "ns", host.len() as u64);
    // The shim's clock is internal: its modelled numbers come from the
    // gate replay, which reads the pool's attributed ns around every op.
    let pm_rounds: Vec<&Round> = if a.workload == Workload::ShimChurn {
        gates.iter().map(|g| &g.round).collect()
    } else {
        rounds[..VARIANTS].iter().collect()
    };
    let pm_ops: u64 = pm_rounds.iter().map(|r| r.ops()).sum();
    let pm_total: u64 = pm_rounds.iter().map(|r| r.virtual_ns()).sum();
    m.push("pm_ns_per_op", pm_total as f64 / pm_ops as f64, "ns", pm_ops);
    let mut pm: Vec<u32> =
        pm_rounds.iter().flat_map(|r| r.sinks.iter().flat_map(|s| s.pm.iter().copied())).collect();
    pm.sort_unstable();
    m.push("pm_p50_ns", quantile(&pm, 0.50), "ns", pm.len() as u64);
    m.push("pm_p99_ns", quantile(&pm, 0.99), "ns", pm.len() as u64);
    m.push("pm_p999_ns", quantile(&pm, 0.999), "ns", pm.len() as u64);
    let amp: f64 = rounds
        .iter()
        .zip(&peak_live)
        .map(|(r, &live)| r.peak_mapped as f64 / live as f64)
        .sum::<f64>()
        / VARIANTS as f64;
    m.push("space_amp", amp, "ratio", VARIANTS as u64);
    m.push("host_ref_per_op", median(&mut op_refs), "ref/op", op_refs.len() as u64);
    m.push("recovery_ms", quiet_median(&mut recov), "ms", recov.len() as u64);
    m.push("recovery_kref", median(&mut recov_refs), "kref", recov_refs.len() as u64);
    let attempted = rounds.iter().chain(gates.iter().map(|g| &g.round)).map(|r| r.ops()).sum();
    let failed = rounds.iter().chain(gates.iter().map(|g| &g.round)).map(|r| r.failed()).sum();
    m.push("fail_frac", failed as f64 / attempted as f64, "ratio", attempted);
    m.push("setup_s", median(&mut setups), "s", setups.len() as u64);
    let clean = gates.iter().all(|g| g.problems.is_empty());
    (m, clean && failed == 0, attempted, failed)
}

fn report_gate(g: &Gate) {
    println!(
        "gate: replayed {} ops on a crash-tracked pool, crashed, recovered ({} slabs, {} extents, \
         {} WAL entries replayed, {} morphs resolved), audit {:.3} ms: {}",
        g.ops,
        g.report.slabs,
        g.report.extents,
        g.report.wal_replayed,
        g.report.morphs_resolved,
        g.audit_ms,
        if g.problems.is_empty() {
            "clean".to_string()
        } else {
            format!("{} problems", g.problems.len())
        }
    );
    for p in g.problems.iter().take(10) {
        println!("gate: FAIL {p}");
    }
}

/// Instrumentation arms of the traced run, all on the shipped defaults
/// except for the public `NvConfig` switches named.
fn all_on(base: NvConfig) -> NvConfig {
    base.trace(true).timeline(100_000).profiling(256 << 10)
}

fn traced(a: &Args) -> (Metrics, bool, u64, u64) {
    let ff = [ledger::flush_fence_host_ns(1), ledger::flush_fence_host_ns(2)];
    // Interleave the arms so drift in the host hits each alike.
    let base = NvConfig::log();
    let arms: [(NvConfig, Mode); 4] = [
        (base.clone(), Mode::Timed),
        (base.clone().telemetry(false), Mode::Timed),
        (all_on(base.clone()), Mode::Timed),
        (base, Mode::Traced),
    ];
    let mut ns_per_op: [Vec<f64>; 4] = Default::default();
    let mut traced_round = None;
    let mut trace = None;
    let (mut attempted, mut failed) = (0, 0);
    let start = Instant::now();
    while ns_per_op[3].is_empty()
        || (start.elapsed().as_secs_f64() < a.seconds && ns_per_op[3].len() < MAX_ROUNDS)
    {
        for (i, (cfg, mode)) in arms.iter().enumerate() {
            let (t, engine, _) = setup(a, 0, cfg.clone());
            let r = engine.replay(&t, *mode);
            engine.close();
            ns_per_op[i].push(r.wall_ns as f64 / r.ops() as f64);
            attempted += r.ops();
            failed += r.failed();
            if *mode == Mode::Traced && traced_round.is_none() {
                traced_round = Some(r);
                trace = Some(t);
            }
        }
    }
    let trace = trace.unwrap();
    let reps = ns_per_op[0].len() as u64;
    let mut roots = Vec::new();
    let g = gate(a, &trace, Some(&mut roots));
    report_gate(&g);
    let r = traced_round.unwrap();
    // Each arm's fastest rep: the one other tenants of the host disturbed
    // least.
    let host = ns_per_op.map(|v| v.into_iter().fold(f64::INFINITY, f64::min));
    let overheads = ledger::Overheads {
        telemetry: host[0] / host[1],
        all_on: host[2] / host[0],
        trace: host[3] / host[0],
        reps,
    };
    let m = ledger::per_layer(a.workload, &trace, &r, &g.report, g.audit_ms, ff, overheads);
    println!("gate: first recovery {:.3} ms (cold)", g.recover_ms);
    if let Some(path) = &a.spans {
        ledger::write_spans(path, &r, &roots)
            .unwrap_or_else(|e| eprintln!("nvbench: --spans {path}: {e}"));
    }
    let (attempted, failed) = (attempted + g.ops, failed + g.failed);
    (m, g.problems.is_empty() && failed == 0, attempted, failed)
}

/// Keep freed memory in the process. Every round formats a fresh pool of
/// tens of MiB; returned to the kernel between rounds, its pages fault in
/// again while the next allocator is created and its trace replays.
/// Served from the retained heap instead, a pool costs a `memset` outside
/// the clock.
fn retain_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_MAX: i32 = -4;
        // SAFETY: glibc's `mallopt` only adjusts allocator tunables; it is
        // called before any other thread exists.
        unsafe {
            mallopt(M_MMAP_MAX, 0);
            mallopt(M_TRIM_THRESHOLD, i32::MAX);
        }
    }
}

fn main() {
    retain_heap();
    let a = parse_args();
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "nvbench: workload {:?}, seed {}, {} s, trace {}, {} ops per round, {} worker(s) on {} CPU(s), NVAlloc-LOG on an ADR virtual-clock pool",
        a.workload, a.seed, a.seconds, a.trace as u8, a.workload.ops(), a.workload.threads(), cpus
    );
    let (m, correct, attempted, failed) = if a.trace { traced(&a) } else { untraced(&a) };
    m.print();
    println!("{}", m.json(correct, attempted, failed));
    if !correct {
        std::process::exit(1);
    }
}
