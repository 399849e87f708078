//! Offline pool auditor ("heap doctor").
//!
//! Opens a heap image saved with `--save-pool` (or
//! `PmemPool::save_heap_file`), cross-checks every persistent structure
//! (booklog / region table vs. heap spans, slab headers and bitmaps,
//! morph index tables, WAL vs. committed state, root slots), and prints
//! one JSON report line. Exit status 1 when violations were found.
//!
//! ```text
//! nvalloc_doctor <image.heap> [--gc | --internal | --base] [--pretty]
//! ```
//!
//! Arena and root counts are read from the pool header; the variant flag
//! must match the configuration the pool was created with (defaults to
//! NVAlloc-LOG, the configuration every fig binary saves).

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
    for a in &args {
        match a.as_str() {
            "--gc" => cfg = NvConfig::gc(),
            "--internal" => cfg = NvConfig::internal(),
            "--base" => cfg = NvConfig::base(),
            "--pretty" => pretty = true,
            "--help" | "-h" => {
                eprintln!("usage: nvalloc_doctor <image.heap> [--gc|--internal|--base] [--pretty]");
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
        eprintln!("usage: nvalloc_doctor <image.heap> [--gc|--internal|--base] [--pretty]");
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
