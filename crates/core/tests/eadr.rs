//! eADR-platform behaviour (§6.7): flushes are free, stores are charged
//! through a write-combining model, and NVAlloc auto-disables its
//! interleaving (which only exists to avoid flush-path reflushes).

use std::sync::Arc;

use nvalloc::api::PmAllocator;
use nvalloc::{NvAllocator, NvConfig};
use nvalloc_pmem::{LatencyMode, PmemConfig, PmemMode, PmemPool};

fn eadr_pool() -> Arc<PmemPool> {
    PmemPool::new(
        PmemConfig::default()
            .pool_size(64 << 20)
            .latency_mode(LatencyMode::Virtual)
            .pmem_mode(PmemMode::Eadr),
    )
}

#[test]
fn auto_eadr_disables_interleaving() {
    let a = NvAllocator::create(eadr_pool(), NvConfig::log()).unwrap();
    let cfg = a.config();
    assert!(!cfg.interleave_bitmap);
    assert!(!cfg.interleave_tcache);
    assert!(!cfg.interleave_logs);
    // Morphing is orthogonal and stays on.
    assert!(cfg.morphing);
}

#[test]
fn auto_eadr_can_be_overridden() {
    let cfg = NvConfig { auto_eadr: false, ..NvConfig::log() };
    let a = NvAllocator::create(eadr_pool(), cfg).unwrap();
    assert!(a.config().interleave_bitmap, "explicit override must stick");
}

#[test]
fn eadr_charges_stores_not_flushes() {
    let p = eadr_pool();
    let a = NvAllocator::create(Arc::clone(&p), NvConfig::log()).unwrap();
    let mut t = a.thread();
    for i in 0..200 {
        t.malloc_to(64, a.root_offset(i * 8)).unwrap();
    }
    let s = p.stats().snapshot();
    // Flush *operations* still happen (the code path is unchanged) but
    // they cost nothing; all accrued time comes from store misses.
    assert!(s.flushes > 0);
    assert_eq!(s.kind_ns.iter().sum::<u64>(), 0, "flushes must be free under eADR");
    assert!(t.pm().virtual_ns() > 0, "stores must be charged");
}

#[test]
fn eadr_faster_than_adr_for_strong_allocator() {
    let run = |mode: PmemMode| {
        let p = PmemPool::new(
            PmemConfig::default()
                .pool_size(64 << 20)
                .latency_mode(LatencyMode::Virtual)
                .pmem_mode(mode),
        );
        let a = NvAllocator::create(Arc::clone(&p), NvConfig::log()).unwrap();
        let mut t = a.thread();
        for i in 0..500 {
            t.malloc_to(64, a.root_offset(i * 8)).unwrap();
        }
        t.pm().virtual_ns()
    };
    let adr = run(PmemMode::Adr);
    let eadr = run(PmemMode::Eadr);
    assert!(eadr * 2 < adr, "eADR should be at least 2x cheaper (adr={adr}ns eadr={eadr}ns)");
}

#[test]
fn recovery_works_on_eadr_pools() {
    // Under eADR the entire cache is in the persistence domain, so a crash
    // image is the full volatile state.
    let p = PmemPool::new(
        PmemConfig::default()
            .pool_size(64 << 20)
            .latency_mode(LatencyMode::Off)
            .pmem_mode(PmemMode::Eadr)
            .crash_tracking(true),
    );
    let a = NvAllocator::create(Arc::clone(&p), NvConfig::log()).unwrap();
    let mut t = a.thread();
    let addr = t.malloc_to(100, a.root_offset(0)).unwrap();
    p.write_u64(addr, 42);
    // eADR: no flush needed for survival — but our crash image only keeps
    // flushed lines, so model the platform flush-on-power-fail by taking
    // the clean image.
    let img = PmemPool::from_crash_image(p.clean_shutdown_image());
    let (a2, _) = NvAllocator::recover(Arc::clone(&img), NvConfig::log()).unwrap();
    assert_eq!(img.read_u64(a2.root_offset(0)), addr);
    assert_eq!(img.read_u64(addr), 42);
}
