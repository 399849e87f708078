//! Fragmentation over time (extension of Fig. 15): Fragbench W3 churn
//! with the heap-observatory timeline sampler, NVAlloc-LOG vs. two
//! baselines.
//!
//! The paper's Fig. 1b/15 report *endpoint* fragmentation (peak mapped
//! over live cap). This experiment plots the whole trajectory: how fast
//! each allocator's mapped footprint diverges from live data as the
//! size distribution shifts mid-run. The NVAlloc series carries two
//! sub-series — the external mapped/live poll every K operations (same
//! as the baselines, for an apples-to-apples factor curve) and the
//! in-allocator timeline samples (occupancy, external/internal
//! fragmentation, queue depths, windowed latency quantiles), which the
//! baselines cannot produce.
//!
//! Output is multi-series JSON-lines, one object per point, written to
//! `results/fig_frag_timeline.jsonl` (or the `--timeline <path>`
//! destination when given):
//!
//! * `{"series":"PMDK","workload":"W3","kind":"churn","ops":…,"ns":…,
//!   "mapped":…,"live":…,"factor":…}` — externally polled points;
//! * `{"series":"NVAlloc-LOG","workload":"W3","kind":"timeline",
//!   "sample":{…}}` — one embedded [`nvalloc::observe::TimelineSample`]
//!   per virtual-clock tick.
//!
//! Every series is deterministic end to end: the churn is seeded and
//! single-threaded, and both the sampler and every allocator's extent
//! decay run on the virtual clock, so all three series are
//! byte-identical across runs.

use std::io::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

use nvalloc::api::PmAllocator;
use nvalloc::{NvAllocator, NvConfig};
use nvalloc_workloads::allocators::Which;
use nvalloc_workloads::fragbench::{self, ChurnPoint};
use nvalloc_workloads::Reporter;

use crate::experiments::motivation::frag_params;
use crate::experiments::{mib, pool_mb};
use crate::Scale;

/// Timeline tick interval (virtual ns) when `--timeline-interval` wasn't
/// given: coarse enough that a default-scale W3 run fits [`RING`].
pub const DEFAULT_INTERVAL_NS: u64 = 300_000;

/// Timeline ring capacity for the NVAlloc series (samples beyond this
/// drop oldest; the summary table reports the drop count).
pub const RING: usize = 16_384;

fn churn_line(series: &str, w: &str, pt: &ChurnPoint) -> String {
    let factor = pt.mapped as f64 / pt.live.max(1) as f64;
    format!(
        "{{\"series\":\"{series}\",\"workload\":\"{w}\",\"kind\":\"churn\",\
         \"ops\":{},\"ns\":{},\"mapped\":{},\"live\":{},\"factor\":{factor:.4}}}",
        pt.ops, pt.ns, pt.mapped, pt.live,
    )
}

/// Fragmentation-over-time under Fragbench W3 churn.
pub fn run_frag_timeline(scale: &Scale) {
    let w = fragbench::TABLE1[2]; // W3: 90% delete + size shift, the churniest row
    let p = frag_params(scale);
    // ~256 external points per run regardless of scale (125 B is W3's
    // rough mean object size).
    let every = (p.total_bytes as u64 / 125 / 128).max(1_000);
    let interval = if scale.timeline_ns() > 0 { scale.timeline_ns() } else { DEFAULT_INTERVAL_NS };

    let out =
        scale.timeline.clone().unwrap_or_else(|| PathBuf::from("results/fig_frag_timeline.jsonl"));
    if let Some(dir) = out.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)
                .unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
        }
    }
    let mut f = std::fs::File::create(&out)
        .unwrap_or_else(|e| panic!("fig_frag_timeline {}: {e}", out.display()));

    println!(
        "\n== Frag timeline ({}, churn point every {every} ops, timeline tick {interval} ns) ==",
        w.name
    );
    let mut rep = Reporter::new(&[
        "series",
        "churn pts",
        "timeline pts",
        "dropped",
        "peak MiB",
        "final factor",
        "final ext frag",
    ]);

    // NVAlloc-LOG: external poll + in-allocator timeline.
    {
        let a = Arc::new(
            NvAllocator::create(
                pool_mb(2048),
                NvConfig::log()
                    .roots(1 << 20)
                    .timeline(interval)
                    .timeline_capacity(RING)
                    .trace(scale.tracing())
                    .trace_events_per_thread(scale.trace_events())
                    .profiling(scale.profile_sample()),
            )
            .expect("create"),
        );
        let dyn_a: Arc<dyn PmAllocator> = a.clone();
        let mut churn = 0usize;
        let r = fragbench::run_sampled(&dyn_a, w, p, every, &mut |pt| {
            churn += 1;
            writeln!(f, "{}", churn_line("NVAlloc-LOG", w.name, &pt)).expect("write churn line");
        });
        scale.emit("fig_frag_timeline/nvalloc_log", &r.measurement);
        let samples = a.timeline_samples();
        for s in &samples {
            writeln!(
                f,
                "{{\"series\":\"NVAlloc-LOG\",\"workload\":\"{}\",\"kind\":\"timeline\",\"sample\":{}}}",
                w.name,
                s.to_json()
            )
            .expect("write timeline line");
        }
        let dropped = a.timeline_sampler().map_or(0, |o| o.dropped());
        let last = samples.last();
        rep.row(&[
            "NVAlloc-LOG",
            &churn.to_string(),
            &samples.len().to_string(),
            &dropped.to_string(),
            &mib(r.peak_mapped),
            &format!("{:.2}", r.overhead_factor(p.live_cap)),
            &last.map_or("-".into(), |s| format!("{:.3}", s.external_frag)),
        ]);
        // `finish` would overwrite the multi-series file at the
        // `--timeline` path, so only the profiled-shutdown tail runs
        // here. The W3 heap still holds its live cap, so the profile's
        // retained set names the fragbench site.
        scale.finish_profile(&*dyn_a);
    }

    // Baselines: external poll only (they have no sampler to ask).
    for which in [Which::Pmdk, Which::Makalu] {
        let a = which.create_with_roots(pool_mb(2048), 1 << 20);
        let mut churn = 0usize;
        let r = fragbench::run_sampled(&a, w, p, every, &mut |pt| {
            churn += 1;
            writeln!(f, "{}", churn_line(which.name(), w.name, &pt)).expect("write churn line");
        });
        scale.emit(&format!("fig_frag_timeline/{}", which.name()), &r.measurement);
        rep.row(&[
            which.name(),
            &churn.to_string(),
            "0",
            "0",
            &mib(r.peak_mapped),
            &format!("{:.2}", r.overhead_factor(p.live_cap)),
            "-",
        ]);
    }

    print!("{}", rep.render());
    println!("multi-series JSON written to {}", out.display());
}
