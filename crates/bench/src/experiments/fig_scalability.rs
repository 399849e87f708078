//! Fig. 22 (extension): wall-clock free-path scalability.
//!
//! Every other experiment reports *modelled* time, which deliberately
//! hides host-side lock contention. This one sweeps thread counts over
//! the [`nvalloc_workloads::remote_mix`] workload and reports real
//! wall-clock throughput, which is exactly where the lock-free free fast
//! path, the per-arena remote-free queues, and the sharded large
//! allocator show up: with them, adding threads adds throughput; without
//! them, every free serialises on the arena mutex and every extent op
//! serialises on one large-allocator lock.
//!
//! Four series per thread count:
//! * `NVAlloc-LOG` — sharded large allocator (one shard per arena);
//! * `NVAlloc-LOG/1shard` — identical config with `large_shards(1)`, the
//!   pre-sharding behaviour, isolating the sharding win;
//! * `PMDK` and `Makalu` — baseline allocators for context.
//!
//! Honours `--threads a,b,c`, `--ops N` (per-thread allocation count),
//! `--quick`/`--full`/`--factor`, and `--json`.

use nvalloc::telemetry::OpKind;
use nvalloc::NvConfig;
use nvalloc_workloads::allocators::{create_custom, Which};
use nvalloc_workloads::{remote_mix, BenchMeasurement, Reporter};

use crate::experiments::{mops_cell, pool_sleep_mb};
use crate::Scale;

/// Fraction of frees handed to the ring neighbour.
pub const REMOTE_FRAC: f64 = 0.4;

/// Fraction of allocations drawn from the large size classes, so the
/// sweep also measures large-shard lock contention (cross-shard frees
/// included: a handed-off large block is freed by a different thread).
pub const LARGE_FRAC: f64 = 0.05;

fn run_series(
    scale: &Scale,
    rep: &mut Reporter,
    bench: &str,
    label: Option<&str>,
    threads: usize,
    ops: usize,
    alloc: &std::sync::Arc<dyn nvalloc::api::PmAllocator>,
) -> BenchMeasurement {
    let m = remote_mix::run(
        alloc,
        remote_mix::Params {
            threads,
            ops,
            remote_frac: REMOTE_FRAC,
            large_frac: LARGE_FRAC,
            seed: 0x22,
        },
    );
    scale.emit(bench, &m);
    scale.finish(&**alloc);
    let frees = m.metrics.free_fast_local + m.metrics.free_remote + m.metrics.free_locks;
    let remote_pct = 100.0 * m.metrics.free_remote as f64 / frees.max(1) as f64;
    let locks_per_op = m.metrics.free_locks as f64 / m.ops.max(1) as f64;
    let large_locks_per_op = m.metrics.large_lock_acquires as f64 / m.ops.max(1) as f64;
    let large_cont_per_op = m.metrics.large_lock_contended as f64 / m.ops.max(1) as f64;
    // Modelled small-malloc tail latency, from the same log2 histograms
    // the JSON `latency` object is reduced from (baselines have no
    // internal histograms and report 0).
    let alloc_hist = m.metrics.hists.of(OpKind::MallocSmall);
    rep.row(&[
        label.unwrap_or(&m.allocator),
        &threads.to_string(),
        &mops_cell(m.wall_mops()),
        &mops_cell(m.mops()),
        &format!("{remote_pct:.1}"),
        &format!("{locks_per_op:.4}"),
        &format!("{large_locks_per_op:.4}"),
        &format!("{large_cont_per_op:.4}"),
        &format!("{:.0}", m.lock_wait_ns_per_op()),
        &alloc_hist.quantile(0.50).to_string(),
        &alloc_hist.quantile(0.99).to_string(),
        &alloc_hist.quantile(0.999).to_string(),
    ]);
    m
}

/// Fig. 22: remote-mix wall-clock throughput by thread count.
pub fn run_fig22(scale: &Scale) {
    let ops = scale.fixed_ops.unwrap_or_else(|| scale.ops(20_000, 1_000));
    println!(
        "\n== Fig 22 (wall-clock scalability, remote-mix, {:.0}% remote frees, {:.0}% large, {ops} allocs/thread) ==",
        REMOTE_FRAC * 100.0,
        LARGE_FRAC * 100.0,
    );
    let mut rep = Reporter::new(&[
        "allocator",
        "threads",
        "wall Mops/s",
        "modelled Mops/s",
        "remote %",
        "free locks/op",
        "large locks/op",
        "large cont/op",
        "lock wait ns/op",
        "alloc p50 ns",
        "alloc p99 ns",
        "alloc p999 ns",
    ]);
    for &t in scale.threads() {
        // One arena per thread (the paper binds arenas to cores), so a
        // handed-off free really is remote to the freeing thread's arena;
        // the large allocator defaults to one shard per arena.
        let sharded = create_custom(
            pool_sleep_mb(512),
            NvConfig::log()
                .arenas(t)
                .trace(scale.tracing())
                .trace_events_per_thread(scale.trace_events())
                .timeline(scale.timeline_ns())
                .profiling(scale.profile_sample()),
            1 << 18,
        );
        run_series(scale, &mut rep, "fig22_scalability", None, t, ops, &sharded);

        let single = create_custom(
            pool_sleep_mb(512),
            NvConfig::log()
                .arenas(t)
                .large_shards(1)
                .trace(scale.tracing())
                .trace_events_per_thread(scale.trace_events()),
            1 << 18,
        );
        run_series(
            scale,
            &mut rep,
            "fig22_scalability_1shard",
            Some("NVAlloc-LOG/1shard"),
            t,
            ops,
            &single,
        );

        for (which, bench) in
            [(Which::Pmdk, "fig22_scalability_pmdk"), (Which::Makalu, "fig22_scalability_makalu")]
        {
            let base = which.create_with_roots(pool_sleep_mb(512), 1 << 18);
            run_series(scale, &mut rep, bench, None, t, ops, &base);
        }
    }
    print!("{}", rep.render());
}
