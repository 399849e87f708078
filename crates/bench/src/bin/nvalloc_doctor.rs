//! Offline pool auditor ("heap doctor").
//!
//! Opens a heap image saved with `--save-pool` (or
//! `PmemPool::save_heap_file`), cross-checks every persistent structure
//! (booklog / region table vs. heap spans, slab headers and bitmaps,
//! morph index tables, WAL vs. committed state, root slots), and prints
//! one JSON report line. Exit status 1 when violations were found.
//!
//! ```text
//! nvalloc_doctor <image.heap> [--gc | --internal | --base] [--pretty] [--profile]
//! ```
//!
//! Arena and root counts are read from the pool header; the variant flag
//! must match the configuration the pool was created with (defaults to
//! NVAlloc-LOG, the configuration every fig binary saves). `--profile`
//! additionally prints the per-site attribution table reconstructed from
//! the provenance sidelogs (profiling-enabled images only; the sampling
//! period is read from the pool header, so no rate flag is needed).

use std::path::Path;
use std::process::ExitCode;

use nvalloc::doctor::audit_pool;
use nvalloc::NvConfig;
use nvalloc_pmem::{LatencyMode, PmemConfig, PmemPool};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut image: Option<String> = None;
    let mut cfg = NvConfig::log();
    let mut pretty = false;
    let mut profile = false;
    for a in &args {
        match a.as_str() {
            "--gc" => cfg = NvConfig::gc(),
            "--internal" => cfg = NvConfig::internal(),
            "--base" => cfg = NvConfig::base(),
            "--pretty" => pretty = true,
            "--profile" => profile = true,
            "--help" | "-h" => {
                eprintln!(
                    "usage: nvalloc_doctor <image.heap> [--gc|--internal|--base] [--pretty] [--profile]"
                );
                return ExitCode::SUCCESS;
            }
            flag if flag.starts_with("--") => {
                eprintln!("nvalloc_doctor: unknown flag {flag} (try --help)");
                return ExitCode::FAILURE;
            }
            path => image = Some(path.to_string()),
        }
    }
    let Some(image) = image else {
        eprintln!(
            "usage: nvalloc_doctor <image.heap> [--gc|--internal|--base] [--pretty] [--profile]"
        );
        return ExitCode::FAILURE;
    };

    let pool = match PmemPool::open_heap_file(
        Path::new(&image),
        PmemConfig::default().latency_mode(LatencyMode::Off),
    ) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("nvalloc_doctor: cannot open {image}: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Arena/root counts live in the pool header; fold them into the
    // config so images from any `--threads` run audit with the right
    // layout.
    let arenas = pool.read_u64(8) as usize;
    let roots = pool.read_u64(16) as usize;
    if arenas > 0 {
        cfg = cfg.arenas(arenas);
    }
    if roots > 0 {
        cfg = cfg.roots(roots);
    }

    let rep = audit_pool(&pool, &cfg);
    println!("{}", rep.to_json());
    if profile {
        if rep.prof_sample_bytes == 0 {
            eprintln!("profile: image was not profiled (pool header period is 0)");
        } else {
            for r in &rep.prof_site_table {
                eprintln!(
                    "PROF site {:016x}: {} object(s), {} byte(s)",
                    r.site, r.live_objects, r.live_bytes
                );
            }
            eprintln!(
                "profile: {} record(s), {} survivor(s) across {} site(s), {} stale, \
                 {} dropped, {} sampled live byte(s) vs {} swept",
                rep.prof_records,
                rep.prof_live_sampled,
                rep.prof_sites,
                rep.prof_stale_records,
                rep.prof_dropped,
                rep.prof_sampled_live_bytes,
                rep.live_small_bytes + rep.live_large_bytes
            );
        }
    }
    if pretty {
        for v in &rep.violations {
            eprintln!("VIOLATION [{}] {}", v.check, v.detail);
        }
        eprintln!(
            "{} slab(s) (+{} headerless), {} extent(s), {} booklog entr(ies), \
             {} WAL entr(ies), {} violation(s)",
            rep.slabs,
            rep.headerless_slabs,
            rep.extents,
            rep.booklog_entries,
            rep.wal_entries,
            rep.violations.len()
        );
    }
    if rep.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
