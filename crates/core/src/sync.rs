//! Atomic indirection for the lock-free metadata paths.
//!
//! The four modules with lock-free cross-thread protocols (`remote`,
//! `rtree`, `observe`, `global`) import their atomics from
//! here instead of `std::sync::atomic`. In normal builds these are
//! exactly the `std` types. Under `--features sched` they are the
//! schedule-explorer shims from `nvalloc-sched`: API-compatible
//! wrappers that insert a deterministic yield point before every
//! operation and feed a vector-clock data-race detector with the
//! happens-before effect of the declared `Ordering` (see
//! `crates/sched` and DESIGN.md §16). On threads that are not part of
//! an active exploration the shims are passthrough, so the feature is
//! safe to leave on for an entire test binary.
//!
//! The `trace_*` functions annotate *plain* (non-atomic) accesses that
//! participate in a publication protocol — e.g. initializing a node
//! before CAS-installing its pointer. They compile to nothing without
//! the feature and are free outside explorations with it; under an
//! exploration a conflicting unordered pair fails the schedule hard.

#[cfg(feature = "sched")]
pub use nvalloc_sched::shim::{AtomicPtr, AtomicU32, AtomicU64, AtomicUsize};
#[cfg(not(feature = "sched"))]
pub use std::sync::atomic::{AtomicPtr, AtomicU32, AtomicU64, AtomicUsize};

pub use std::sync::atomic::Ordering;

/// Record a plain read of `*p` for the race detector (no-op without an
/// active exploration).
#[inline]
pub fn trace_read<T>(p: *const T, label: &'static str) {
    #[cfg(feature = "sched")]
    nvalloc_sched::trace_read(p, label);
    #[cfg(not(feature = "sched"))]
    let _ = (p, label);
}

/// Record a plain write of `*p` for the race detector (no-op without an
/// active exploration).
#[inline]
pub fn trace_write<T>(p: *const T, label: &'static str) {
    #[cfg(feature = "sched")]
    nvalloc_sched::trace_write(p, label);
    #[cfg(not(feature = "sched"))]
    let _ = (p, label);
}

/// Drop race-detector shadow state for a location being freed, so an
/// allocation reusing the address starts clean.
#[inline]
pub fn trace_forget<T>(p: *const T) {
    #[cfg(feature = "sched")]
    nvalloc_sched::trace_forget(p);
    #[cfg(not(feature = "sched"))]
    let _ = p;
}

/// Spin-loop backoff. Plain [`std::hint::spin_loop`] in normal builds;
/// under an exploration the thread parks until another thread makes
/// progress, keeping bounded spin loops (the slab-gate acquire) finite
/// in the schedule tree instead of an unbounded self-loop.
#[inline]
pub fn spin_loop() {
    #[cfg(feature = "sched")]
    nvalloc_sched::spin_wait();
    #[cfg(not(feature = "sched"))]
    std::hint::spin_loop();
}
