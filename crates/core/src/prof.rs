//! Sampled heap profiler: "*which call sites own the bytes in this
//! pool*", live and at shutdown.
//!
//! Allocations are byte-sampled: a per-thread countdown accumulates
//! granted bytes and every time it crosses the configured sampling period
//! (`NvConfig::profiling(sample_bytes)`) the allocation is *sampled*. A
//! sampled allocation captures a call-site tag — either the explicit tag
//! installed by [`with_site`] (the fixed-depth fast path used by the
//! `GlobalNv`/`nv_malloc` shim) or a hash of the `std::backtrace` frames —
//! and updates a per-site table of estimated live bytes/objects,
//! cumulative sampled allocs/frees, and the size-class mix.
//!
//! The profiler is volatile, like the flight recorder and the timeline:
//! it stores, flushes and fences nothing on persistent memory, so a
//! profiled run leaves the pool exactly as an unprofiled one does, and a
//! recovered allocator's profile starts empty.
//!
//! Sampling math: with period `P`, an allocation of `s` bytes is sampled
//! with expected weight `s` (the countdown crosses `P` on average `s/P`
//! times and each crossing contributes `P` estimated bytes), so
//! `Σ crossings·P` over sampled live objects is an unbiased estimator of
//! live bytes. The countdown is deterministic — no RNG — so same-seed
//! runs on virtual-clock pools produce byte-identical dumps.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

use nvalloc_pmem::PmOffset;

use crate::size_class::{size_to_class, LARGE_MIN};
use crate::telemetry::json::JsonObj;
use crate::telemetry::SCHEMA_VERSION;

/// Pseudo size-class id used in the site mix for large (extent) allocations.
pub const PROF_CLASS_LARGE: usize = 255;

/// Frames hashed per backtrace site (fixed depth keeps tags stable).
const MAX_FRAMES: usize = 16;

// ---------------------------------------------------------------------------
// Call-site capture
// ---------------------------------------------------------------------------

thread_local! {
    static SITE_TAG: Cell<Option<(u64, &'static str)>> = const { Cell::new(None) };
}

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(FNV_PRIME);
    }
}

/// Hash a static label into a site tag.
pub fn site_tag(label: &str) -> u64 {
    let mut h = FNV_OFFSET;
    fnv1a(&mut h, label.as_bytes());
    h
}

struct SiteGuard(Option<(u64, &'static str)>);

impl Drop for SiteGuard {
    fn drop(&mut self) {
        SITE_TAG.with(|s| s.set(self.0));
    }
}

/// Run `f` with an explicit call-site tag installed for the current
/// thread. Sampled allocations inside `f` attribute to `label` without
/// capturing a backtrace — the fixed-depth fast path used by the
/// `GlobalNv` front end and the C-ABI shim.
pub fn with_site<R>(label: &'static str, f: impl FnOnce() -> R) -> R {
    let guard = SiteGuard(SITE_TAG.with(|s| s.replace(Some((site_tag(label), label)))));
    let r = f();
    drop(guard);
    r
}

/// Strip `0x…` hex tokens so ASLR'd frame addresses never reach the hash.
fn strip_hex(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(i) = rest.find("0x") {
        out.push_str(&rest[..i]);
        rest = &rest[i + 2..];
        let end = rest.find(|c: char| !c.is_ascii_hexdigit()).unwrap_or(rest.len());
        rest = &rest[end..];
    }
    out.push_str(rest);
    out
}

/// Capture the current call site: the TLS override if installed, else a
/// fixed-depth hash of the symbolized backtrace frames.
fn capture_site() -> (u64, String) {
    if let Some((tag, label)) = SITE_TAG.with(Cell::get) {
        return (tag, label.to_string());
    }
    let bt = std::backtrace::Backtrace::force_capture();
    let text = bt.to_string();
    let mut frames: Vec<String> = Vec::new();
    for line in text.lines() {
        let t = line.trim_start();
        let Some((idx, sym)) = t.split_once(": ") else {
            continue;
        };
        if idx.is_empty() || !idx.bytes().all(|b| b.is_ascii_digit()) {
            continue;
        }
        let sym = strip_hex(sym.trim());
        if sym.is_empty() || sym.contains("nvalloc::prof") || sym.starts_with("std::backtrace") {
            continue;
        }
        frames.push(sym);
        if frames.len() >= MAX_FRAMES {
            break;
        }
    }
    if frames.is_empty() {
        return (site_tag("unknown"), "unknown".to_string());
    }
    let mut h = FNV_OFFSET;
    for f in &frames {
        fnv1a(&mut h, f.as_bytes());
        fnv1a(&mut h, b";");
    }
    frames.reverse(); // collapsed-stack convention: outermost first
    (h, frames.join(";"))
}

// ---------------------------------------------------------------------------
// Site table
// ---------------------------------------------------------------------------

/// Per-site statistics since attach (a recovered allocator's table starts
/// empty). `live_*`/`*_est` fields are sampled estimates (crossings ×
/// period); the cumulative counters count *sampled events*.
#[derive(Debug, Clone, Default)]
pub struct SiteStats {
    /// Human-readable site label (collapsed frame stack or explicit tag).
    pub label: String,
    /// Estimated live bytes attributed to this site.
    pub live_bytes: u64,
    /// Estimated live objects (sample crossings) for this site.
    pub live_objects: u64,
    /// Cumulative estimated bytes allocated here since attach.
    pub alloc_bytes: u64,
    /// Sampled allocation events since attach.
    pub allocs: u64,
    /// Sampled free events since attach.
    pub frees: u64,
    /// Size-class mix: class id (255 = large) → sampled events.
    pub class_mix: BTreeMap<usize, u64>,
}

#[derive(Debug)]
struct LiveObj {
    site: u64,
    crossings: u64,
}

/// One row of the retained-set report captured at `quiesce()`.
#[derive(Debug, Clone)]
pub struct RetainedSite {
    /// Site hash.
    pub site: u64,
    /// Site label.
    pub label: String,
    /// Estimated bytes still live at quiesce.
    pub live_bytes: u64,
    /// Estimated objects still live at quiesce.
    pub live_objects: u64,
}

#[derive(Debug, Default)]
struct ProfInner {
    sites: BTreeMap<u64, SiteStats>,
    live: BTreeMap<PmOffset, LiveObj>,
    retained: Vec<RetainedSite>,
}

// ---------------------------------------------------------------------------
// Prof
// ---------------------------------------------------------------------------

/// The sampled heap profiler attached to an [`crate::NvAllocator`].
///
/// Locking: the inner `RwLock` is a **leaf lock** — `Prof` never acquires
/// arena or shard locks, so callers may invoke it while holding either.
#[derive(Debug)]
pub struct Prof {
    period: u64,
    samples: AtomicU64,
    free_hits: AtomicU64,
    inner: RwLock<ProfInner>,
}

impl Prof {
    /// A profiler with an empty site table.
    pub(crate) fn new(period: u64) -> Prof {
        Prof {
            period: period.max(1),
            samples: AtomicU64::new(0),
            free_hits: AtomicU64::new(0),
            inner: RwLock::new(ProfInner::default()),
        }
    }

    /// The configured sampling period in bytes.
    pub fn sample_period(&self) -> u64 {
        self.period
    }

    /// Advance the per-thread byte countdown by `size` granted bytes and
    /// return how many times it crossed the sampling period (0 = not
    /// sampled). Deterministic: no RNG, so same-seed runs sample the same
    /// allocations.
    #[inline]
    pub(crate) fn crossings(&self, acc: &mut u64, size: usize) -> u64 {
        *acc += size as u64;
        if *acc < self.period {
            return 0;
        }
        let c = *acc / self.period;
        *acc %= self.period;
        c
    }

    /// Record a sampled allocation. Must be called *before* the
    /// allocation's destination install: once installed, any thread may
    /// free the block, and that free must find the sample.
    pub(crate) fn record_alloc(&self, addr: PmOffset, size: usize, crossings: u64) {
        let (site, label) = capture_site();
        let weight = crossings.saturating_mul(self.period);
        self.samples.fetch_add(1, Ordering::Relaxed);
        let mut inner = self.inner.write().unwrap();
        let e = inner.sites.entry(site).or_default();
        if e.label.is_empty() {
            e.label = label;
        }
        e.live_bytes += weight;
        e.live_objects += crossings;
        e.alloc_bytes += weight;
        e.allocs += 1;
        let class = if size < LARGE_MIN {
            size_to_class(size).unwrap_or(PROF_CLASS_LARGE)
        } else {
            PROF_CLASS_LARGE
        };
        *e.class_mix.entry(class).or_insert(0) += 1;
        let prev = inner.live.insert(addr, LiveObj { site, crossings });
        debug_assert!(prev.is_none(), "sampled address allocated twice: {addr:#x}");
    }

    /// Record the free of an address if (and only if) it was sampled.
    /// Must be called *before* the block becomes reusable (tcache push,
    /// remote push, extent release), so a later sample of the same
    /// address always follows this free.
    pub(crate) fn record_free(&self, addr: PmOffset) {
        {
            let inner = self.inner.read().unwrap();
            if !inner.live.contains_key(&addr) {
                return;
            }
        }
        let mut inner = self.inner.write().unwrap();
        let Some(obj) = inner.live.remove(&addr) else {
            return;
        };
        self.free_hits.fetch_add(1, Ordering::Relaxed);
        let weight = obj.crossings.saturating_mul(self.period);
        if let Some(s) = inner.sites.get_mut(&obj.site) {
            s.live_bytes = s.live_bytes.saturating_sub(weight);
            s.live_objects = s.live_objects.saturating_sub(obj.crossings);
            s.frees += 1;
        }
    }

    // -----------------------------------------------------------------------
    // Reporting
    // -----------------------------------------------------------------------

    /// Capture the retained-set report: every site still holding
    /// estimated live bytes. Called from `quiesce()`.
    pub(crate) fn mark_retained(&self) {
        let mut inner = self.inner.write().unwrap();
        let rows: Vec<RetainedSite> = inner
            .sites
            .iter()
            .filter(|(_, s)| s.live_bytes > 0)
            .map(|(&site, s)| RetainedSite {
                site,
                label: s.label.clone(),
                live_bytes: s.live_bytes,
                live_objects: s.live_objects,
            })
            .collect();
        inner.retained = rows;
    }

    /// The retained-set rows captured by the last `quiesce()`.
    pub fn retained(&self) -> Vec<RetainedSite> {
        self.inner.read().unwrap().retained.clone()
    }

    /// Estimated live bytes summed over all sites.
    pub fn estimated_live_bytes(&self) -> u64 {
        self.inner.read().unwrap().sites.values().map(|s| s.live_bytes).sum()
    }

    /// Number of distinct sites observed.
    pub fn site_count(&self) -> usize {
        self.inner.read().unwrap().sites.len()
    }

    /// Number of currently tracked sampled live objects.
    pub fn live_sampled(&self) -> usize {
        self.inner.read().unwrap().live.len()
    }

    /// `[samples, free_hits]` counters.
    pub(crate) fn counters(&self) -> [u64; 2] {
        [self.samples.load(Ordering::Relaxed), self.free_hits.load(Ordering::Relaxed)]
    }

    /// Full profile dump as a JSON object: site table (BTreeMap order,
    /// deterministic) and retained-set rows.
    pub fn json(&self) -> String {
        let inner = self.inner.read().unwrap();
        let mut o = JsonObj::new();
        o.field_u64("schema_version", SCHEMA_VERSION);
        o.field_u64("sample_bytes", self.period);
        o.field_u64("samples", self.samples.load(Ordering::Relaxed));
        o.field_u64("frees", self.free_hits.load(Ordering::Relaxed));
        o.field_u64("live_sampled", inner.live.len() as u64);
        o.field_u64("estimated_live_bytes", inner.sites.values().map(|s| s.live_bytes).sum());
        let mut sites = String::from("[");
        for (i, (site, s)) in inner.sites.iter().enumerate() {
            if i > 0 {
                sites.push(',');
            }
            let mut so = JsonObj::new();
            so.field_str("site", &format!("{site:016x}"));
            so.field_str("label", &s.label);
            so.field_u64("live_bytes_est", s.live_bytes);
            so.field_u64("live_objects_est", s.live_objects);
            so.field_u64("alloc_bytes_est", s.alloc_bytes);
            so.field_u64("allocs", s.allocs);
            so.field_u64("frees", s.frees);
            let mut mix = String::from("[");
            for (j, (class, n)) in s.class_mix.iter().enumerate() {
                if j > 0 {
                    mix.push(',');
                }
                mix.push_str(&format!("{{\"class\":{class},\"samples\":{n}}}"));
            }
            mix.push(']');
            so.field_raw("classes", &mix);
            sites.push_str(&so.finish());
        }
        sites.push(']');
        o.field_raw("sites", &sites);
        let mut ret = String::from("[");
        for (i, r) in inner.retained.iter().enumerate() {
            if i > 0 {
                ret.push(',');
            }
            let mut ro = JsonObj::new();
            ro.field_str("site", &format!("{:016x}", r.site));
            ro.field_str("label", &r.label);
            ro.field_u64("live_bytes_est", r.live_bytes);
            ro.field_u64("live_objects_est", r.live_objects);
            ret.push_str(&ro.finish());
        }
        ret.push(']');
        o.field_raw("retained", &ret);
        o.finish()
    }

    /// Collapsed-stack dump: one `label live_bytes_estimate` line per
    /// site, flamegraph-compatible.
    pub fn collapsed(&self) -> String {
        let inner = self.inner.read().unwrap();
        let mut out = String::new();
        for s in inner.sites.values() {
            out.push_str(&s.label);
            out.push(' ');
            out.push_str(&s.live_bytes.to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn countdown_crossings_are_unbiased() {
        let p = Prof::new(1024);
        let mut acc = 0u64;
        let mut crossings = 0u64;
        let n = 10_000usize;
        let each = 96usize;
        for _ in 0..n {
            crossings += p.crossings(&mut acc, each);
        }
        let est = crossings * 1024 + acc;
        assert_eq!(est as usize, n * each, "countdown conserves bytes exactly");
    }

    #[test]
    fn with_site_overrides_and_restores() {
        assert!(SITE_TAG.with(Cell::get).is_none());
        let (tag, label) = with_site("alpha", capture_site);
        assert_eq!(tag, site_tag("alpha"));
        assert_eq!(label, "alpha");
        assert!(SITE_TAG.with(Cell::get).is_none());
        // Nested override wins, outer restored after.
        with_site("outer", || {
            let (t2, _) = with_site("inner", capture_site);
            assert_eq!(t2, site_tag("inner"));
            let (t3, _) = capture_site();
            assert_eq!(t3, site_tag("outer"));
        });
    }

    #[test]
    fn backtrace_hash_is_stable_within_process() {
        fn here() -> (u64, String) {
            capture_site()
        }
        let a = here();
        let b = here();
        assert_eq!(a.0, b.0, "same call path hashes to the same site");
        assert_eq!(a.1, b.1);
    }

    #[test]
    fn strip_hex_removes_addresses() {
        assert_eq!(strip_hex("foo::bar at 0x7f3a9c00de11"), "foo::bar at ");
        assert_eq!(strip_hex("no addresses"), "no addresses");
        assert_eq!(strip_hex("0xabc mid 0xDEF end"), " mid  end");
    }
}
