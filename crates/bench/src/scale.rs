//! Benchmark scale control.
//!
//! The paper runs at testbed scale (5 GB heaps, 30 s Larson runs, 50 M KV
//! operations); these binaries default to a laptop scale that preserves
//! every per-operation effect, with `--quick` for smoke runs and `--full`
//! to push toward paper scale. All effects reproduced here are
//! per-operation (reflush distances, write locality, slab policy), so the
//! shapes are scale-invariant.

use std::io::Write as _;
use std::path::PathBuf;

use nvalloc::api::PmAllocator;
use nvalloc_workloads::BenchMeasurement;

/// Scale factor and thread sweep for an experiment run.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Multiplier on operation counts (1.0 = default laptop scale).
    pub factor: f64,
    /// Thread counts to sweep (paper: 1–64).
    pub threads: Vec<usize>,
    /// Destination for machine-readable JSON-lines output (`--json`).
    pub json: Option<PathBuf>,
    /// Exact per-thread operation count (`--ops`), overriding the scaled
    /// default in experiments that honour it (currently Fig. 22).
    pub fixed_ops: Option<usize>,
    /// Destination for a Chrome trace-event JSON export of the flight
    /// recorder (`--trace`). Turns `NvConfig::trace` on for the NVAlloc
    /// series; each finished allocator overwrites the file, so the last
    /// one of the run wins.
    pub trace: Option<PathBuf>,
    /// Destination for a heap-file image of the last finished allocator's
    /// pool (`--save-pool`), written after an orderly `exit()` so the
    /// image audits clean under `nvalloc_doctor`.
    pub save_pool: Option<PathBuf>,
    /// Flight-recorder ring capacity per thread (`--trace-events`,
    /// default 4096). Rings drop oldest on wrap, so raise this to
    /// capture a whole run — e.g. a morph that happens mid-workload —
    /// at 40 B per event of DRAM.
    pub trace_events: usize,
    /// Destination for a JSON-lines export of the heap-observatory
    /// timeline (`--timeline`). Turns `NvConfig::timeline` on for the
    /// NVAlloc series; like `--trace`, each finished allocator
    /// overwrites the file, so the last one of the run wins.
    pub timeline: Option<PathBuf>,
    /// Timeline tick interval in virtual nanoseconds
    /// (`--timeline-interval`, default 50 µs of virtual time).
    pub timeline_interval: u64,
    /// Destination for the sampled heap profile (`--profile`). Turns
    /// `NvConfig::profiling` on for the NVAlloc series; the site-table
    /// JSON lands at the given path and the collapsed-stack text at the
    /// same path with `.collapsed` appended. Like `--trace`, each
    /// finished allocator overwrites the files, so the last one of the
    /// run wins.
    pub profile: Option<PathBuf>,
    /// Sampling period in bytes (`--profile-sample`, default 512 KiB);
    /// only consulted when `--profile` was given.
    pub profile_sample: u64,
    /// Run with the persist-ordering sanitizer (`--pmsan`): pools are
    /// built with shadow persist-state, and [`Scale::finish`] prints the
    /// violation report and **panics on any violation** — the CI
    /// zero-violation gate. Throughput numbers from sanitized runs
    /// measure the same modelled work (the sanitizer only observes the
    /// persistence stream) but pay its DRAM/atomics overhead.
    pub pmsan: bool,
}

impl Scale {
    /// Parse from `std::env::args`: `--quick` (×0.25), `--full` (×4),
    /// `--threads a,b,c`, `--json <path>`.
    pub fn from_args() -> Scale {
        let args: Vec<String> = std::env::args().collect();
        let mut s = Scale::default();
        let mut i = 1;
        while i < args.len() {
            match args[i].as_str() {
                "--quick" => s.factor = 0.25,
                "--full" => s.factor = 4.0,
                "--factor" => {
                    i += 1;
                    s.factor = args[i].parse().expect("--factor takes a number");
                }
                "--ops" => {
                    i += 1;
                    s.fixed_ops = Some(args[i].parse().expect("--ops takes a count"));
                }
                "--threads" => {
                    i += 1;
                    s.threads = args[i]
                        .split(',')
                        .map(|x| x.parse().expect("--threads takes a,b,c"))
                        .collect();
                }
                "--json" => {
                    i += 1;
                    let path = PathBuf::from(args.get(i).expect("--json takes an output path"));
                    // Create/truncate up front so a failed run leaves an
                    // empty file rather than a stale one.
                    std::fs::File::create(&path)
                        .unwrap_or_else(|e| panic!("--json {}: {e}", path.display()));
                    s.json = Some(path);
                }
                "--trace" => {
                    i += 1;
                    let path = PathBuf::from(args.get(i).expect("--trace takes an output path"));
                    std::fs::File::create(&path)
                        .unwrap_or_else(|e| panic!("--trace {}: {e}", path.display()));
                    s.trace = Some(path);
                }
                "--save-pool" => {
                    i += 1;
                    let path =
                        PathBuf::from(args.get(i).expect("--save-pool takes an output path"));
                    std::fs::File::create(&path)
                        .unwrap_or_else(|e| panic!("--save-pool {}: {e}", path.display()));
                    s.save_pool = Some(path);
                }
                "--trace-events" => {
                    i += 1;
                    s.trace_events =
                        args[i].parse().expect("--trace-events takes a per-thread ring capacity");
                }
                "--timeline" => {
                    i += 1;
                    let path =
                        PathBuf::from(args.get(i).expect("--timeline takes an output path"));
                    std::fs::File::create(&path)
                        .unwrap_or_else(|e| panic!("--timeline {}: {e}", path.display()));
                    s.timeline = Some(path);
                }
                "--timeline-interval" => {
                    i += 1;
                    s.timeline_interval =
                        args[i].parse().expect("--timeline-interval takes virtual nanoseconds");
                }
                "--profile" => {
                    i += 1;
                    let path = PathBuf::from(args.get(i).expect("--profile takes an output path"));
                    std::fs::File::create(&path)
                        .unwrap_or_else(|e| panic!("--profile {}: {e}", path.display()));
                    s.profile = Some(path);
                }
                "--profile-sample" => {
                    i += 1;
                    s.profile_sample =
                        args[i].parse().expect("--profile-sample takes a byte period");
                }
                "--pmsan" => s.pmsan = true,
                other => panic!(
                    "unknown flag {other} (try --quick/--full/--threads 1,2,4/--ops 10000/--json out.jsonl/--trace t.json/--trace-events 1000000/--timeline tl.jsonl/--timeline-interval 50000/--profile prof.json/--profile-sample 524288/--save-pool p.heap/--pmsan)"
                ),
            }
            i += 1;
        }
        s
    }

    /// `n` scaled by the factor, at least `min`.
    pub fn ops(&self, n: usize, min: usize) -> usize {
        ((n as f64 * self.factor) as usize).max(min)
    }

    /// The paper's full thread sweep, possibly overridden.
    pub fn threads(&self) -> &[usize] {
        &self.threads
    }

    /// True when `--trace` was given; experiments switch
    /// `NvConfig::trace` on for the NVAlloc allocators they build.
    pub fn tracing(&self) -> bool {
        self.trace.is_some()
    }

    /// Per-thread flight-recorder ring capacity (`--trace-events`).
    pub fn trace_events(&self) -> usize {
        self.trace_events
    }

    /// The `NvConfig::timeline` interval experiments should build their
    /// NVAlloc allocators with: the configured tick interval when
    /// `--timeline` was given, else 0 (sampler off).
    pub fn timeline_ns(&self) -> u64 {
        if self.timeline.is_some() {
            self.timeline_interval
        } else {
            0
        }
    }

    /// The `NvConfig::profiling` sampling period experiments should build
    /// their NVAlloc allocators with: the configured byte period when
    /// `--profile` was given, else 0 (profiler off).
    pub fn profile_sample(&self) -> u64 {
        if self.profile.is_some() {
            self.profile_sample
        } else {
            0
        }
    }

    /// Post-run hooks for one finished allocator: export its flight
    /// recorder as Chrome trace JSON (`--trace`) and/or save its pool as
    /// a heap image (`--save-pool`). Later calls overwrite earlier ones,
    /// so the last allocator of a run wins; CI narrows the sweep with
    /// `--threads` to make that deterministic. The pool is saved after an
    /// orderly `exit()` so the image audits clean.
    pub fn finish(&self, alloc: &dyn PmAllocator) {
        if let Some(path) = &self.trace {
            if let Some(json) = alloc.trace_json() {
                std::fs::write(path, json)
                    .unwrap_or_else(|e| panic!("--trace {}: {e}", path.display()));
            }
        }
        if let Some(path) = &self.timeline {
            if let Some(json) = alloc.timeline_json() {
                std::fs::write(path, json)
                    .unwrap_or_else(|e| panic!("--timeline {}: {e}", path.display()));
            }
        }
        // Sanitized allocators (pmsan pools) get an orderly shutdown —
        // quiesce drains deferred frees, exit persists volatile caches —
        // and then the zero-violation gate. Baselines run on plain pools
        // even under `--pmsan` (their naive persistence patterns are the
        // *subject* of the motivation figures), so this is a no-op for
        // them.
        let sanitized = self.pmsan && alloc.pool().pmsan_enabled();
        // Profiled allocators are quiesced first so the retained-set rows
        // (leak report) are marked before the dump; the dump itself is
        // taken after `exit()` so it reflects the final heap.
        let profiled = self.profile.is_some() && alloc.profile_json().is_some();
        if sanitized || profiled {
            alloc.quiesce();
        }
        if sanitized || profiled || self.save_pool.is_some() {
            alloc.exit();
        }
        if profiled {
            self.write_profile(alloc);
        }
        if let Some(path) = &self.save_pool {
            alloc
                .pool()
                .save_heap_file(path, false)
                .unwrap_or_else(|e| panic!("--save-pool {}: {e}", path.display()));
        }
        if sanitized {
            let report = alloc.pool().pmsan_report().expect("sanitized pool carries state");
            println!("pmsan: {}", report.to_json());
            assert_eq!(
                report.total(),
                0,
                "persist-ordering violations detected (see report above)"
            );
        }
    }

    /// The profiled-shutdown tail of [`Scale::finish`] alone — quiesce
    /// (marks the retained-set rows), exit, and write the `--profile`
    /// dumps. For experiments that export their trace/timeline
    /// themselves (the frag timeline's multi-series file lands at the
    /// `--timeline` path, which `finish` would overwrite).
    pub fn finish_profile(&self, alloc: &dyn PmAllocator) {
        if self.profile.is_none() || alloc.profile_json().is_none() {
            return;
        }
        alloc.quiesce();
        alloc.exit();
        self.write_profile(alloc);
    }

    /// Write the `--profile` JSON dump and its `.collapsed` companion.
    fn write_profile(&self, alloc: &dyn PmAllocator) {
        let path = self.profile.as_ref().expect("profiled implies --profile");
        let json = alloc.profile_json().expect("profiled implies a profiler");
        std::fs::write(path, json).unwrap_or_else(|e| panic!("--profile {}: {e}", path.display()));
        if let Some(folded) = alloc.profile_collapsed() {
            let mut fp = path.as_os_str().to_owned();
            fp.push(".collapsed");
            std::fs::write(&fp, folded)
                .unwrap_or_else(|e| panic!("--profile {}: {e}", path.display()));
        }
    }

    /// Append one measurement as a JSON line to the `--json` file, if any.
    ///
    /// `bench` names the experiment (and sub-series, e.g.
    /// `"fig09_small_strong"`); it lands in the record's `bench` field.
    pub fn emit(&self, bench: &str, m: &BenchMeasurement) {
        let Some(path) = &self.json else { return };
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(path)
            .unwrap_or_else(|e| panic!("--json {}: {e}", path.display()));
        writeln!(f, "{}", m.to_json(bench)).expect("write --json line");
    }
}

impl Default for Scale {
    fn default() -> Scale {
        Scale {
            factor: 1.0,
            threads: vec![1, 2, 4, 8, 16, 32, 64],
            json: None,
            fixed_ops: None,
            trace: None,
            save_pool: None,
            trace_events: 4096,
            timeline: None,
            timeline_interval: 50_000,
            profile: None,
            profile_sample: 512 << 10,
            pmsan: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_respects_minimum() {
        let s = Scale { factor: 0.001, ..Scale::default() };
        assert_eq!(s.ops(1000, 10), 10);
        let s = Scale { factor: 2.0, ..Scale::default() };
        assert_eq!(s.ops(1000, 10), 2000);
    }

    #[test]
    fn timeline_interval_gated_on_flag() {
        let s = Scale::default();
        assert_eq!(s.timeline_ns(), 0, "no --timeline → sampler off");
        let s = Scale { timeline: Some(PathBuf::from("tl.jsonl")), ..Scale::default() };
        assert_eq!(s.timeline_ns(), 50_000, "default interval once --timeline is given");
    }

    #[test]
    fn profile_sample_gated_on_flag() {
        let s = Scale::default();
        assert_eq!(s.profile_sample(), 0, "no --profile → profiler off");
        let s = Scale { profile: Some(PathBuf::from("prof.json")), ..Scale::default() };
        assert_eq!(s.profile_sample(), 512 << 10, "default period once --profile is given");
        let s = Scale {
            profile: Some(PathBuf::from("prof.json")),
            profile_sample: 4096,
            ..Scale::default()
        };
        assert_eq!(s.profile_sample(), 4096);
    }

    #[test]
    fn emit_without_json_path_is_a_noop() {
        let s = Scale::default();
        let m = BenchMeasurement {
            allocator: "x".into(),
            threads: 1,
            ops: 0,
            elapsed_ns: 0,
            wall_ns: 0,
            stats: Default::default(),
            peak_mapped: 0,
            mapped: 0,
            metrics: Default::default(),
        };
        s.emit("noop", &m); // must not panic or touch the filesystem
    }

    #[test]
    fn finish_without_flags_is_a_noop() {
        let s = Scale::default();
        let pool = nvalloc_pmem::PmemPool::new(
            nvalloc_pmem::PmemConfig::default()
                .pool_size(32 << 20)
                .latency_mode(nvalloc_pmem::LatencyMode::Off),
        );
        let alloc = nvalloc::NvAllocator::create(pool, nvalloc::NvConfig::log().roots(16)).unwrap();
        s.finish(&alloc); // no --trace/--save-pool: must not touch the fs
    }
}
