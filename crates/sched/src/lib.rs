//! nvalloc-sched: a vendored, offline, loom-style cooperative schedule
//! explorer and vector-clock data-race detector for NVAlloc's lock-free
//! metadata paths.
//!
//! # What this crate does
//!
//! pmsan (crates/pmem) systematically checks *persist ordering* — which
//! crash images a sequence of stores/flushes/fences can leave behind.
//! Nothing checked *thread interleaving*: the Treiber remote-free
//! queues, the CAS-install rtree, the observatory tick-claim, and the
//! GlobalAlloc slot-directory handshake were exercised only by stress
//! tests. This crate closes that gap:
//!
//! 1. **Shim atomics** ([`shim`]): drop-in `Atomic{Bool,U32,U64,Usize,
//!    Ptr}` that insert a schedule point before every operation and feed
//!    a vector-clock engine with the happens-before effect the declared
//!    `Ordering` actually provides. Under `--features sched`, the four
//!    core modules route their atomics through these (via
//!    `nvalloc::sync`); without a live exploration they are passthrough.
//! 2. **Cooperative runtime** ([`rt`]): real OS threads, exactly one
//!    runnable at a time, deterministic token passing. Contended
//!    vendored-parking_lot mutexes park cooperatively instead of
//!    blocking the whole exploration.
//! 3. **Race detector** ([`clock`]): FastTrack-style vector clocks.
//!    Release stores publish, Acquire loads join, RMWs continue release
//!    sequences, Relaxed transfers nothing. Traced *plain* accesses
//!    (node init before CAS publish, reads after pointer loads) that
//!    conflict without a happens-before edge fail the schedule hard.
//! 4. **Explorers** ([`explore`]): bounded-exhaustive DFS with optional
//!    CHESS-style preemption bounding for small models, PCT randomized
//!    priorities for larger ones. Every failing schedule is replayable
//!    from its branchy-decision trace or its per-schedule seed.
//!
//! Models compose with pmsan: run the interesting window under
//! `pmsan_window_begin`/`end` inside the model, and for each explored
//! interleaving enumerate at-fence crash images and assert doctor-clean
//! recovery (see `tests/sched_models.rs` in the workspace root).
//!
//! # Writing a model
//!
//! ```
//! use nvalloc_sched::{explore, spawn, ExploreOptions};
//! use nvalloc_sched::shim::AtomicU64;
//! use std::sync::atomic::Ordering;
//! use std::sync::Arc;
//!
//! let report = explore("counter", &ExploreOptions::exhaustive(1000), || {
//!     let c = Arc::new(AtomicU64::new(0));
//!     let c2 = Arc::clone(&c);
//!     let t = spawn(move || {
//!         c2.fetch_add(1, Ordering::AcqRel);
//!     });
//!     c.fetch_add(1, Ordering::AcqRel);
//!     t.join();
//!     assert_eq!(c.load(Ordering::Acquire), 2);
//! });
//! assert!(report.ok() && report.complete);
//! ```
//!
//! Models must be deterministic apart from interleaving: fresh state
//! per invocation, no wall-clock time, no OS randomness. Pools should
//! use `LatencyMode::Off`.

#![warn(missing_docs)]

pub mod clock;
pub mod explore;
mod hooks;
pub mod rt;
pub mod shim;

pub use clock::Race;
pub use explore::{
    explore, replay_seed, replay_trace, schedule_seed, ExploreOptions, ExploreReport,
    ScheduleFailure, SplitMix64, Strategy,
};
pub use rt::{active, spawn, spin_wait, yield_now, FailureKind, JoinHandle, RunOutcome, Tid};
pub use shim::{trace_forget, trace_read, trace_write};

#[cfg(test)]
mod tests {
    use super::shim::{AtomicPtr, AtomicU64};
    use super::*;
    use std::sync::atomic::Ordering;
    use std::sync::Arc;

    /// Two-thread message passing with proper Release/Acquire: the
    /// traced plain payload never races, in any interleaving.
    #[test]
    fn message_passing_release_acquire_clean() {
        let report = explore("mp-rel-acq", &ExploreOptions::exhaustive(10_000), || {
            let slot: Arc<AtomicPtr<u64>> = Arc::new(AtomicPtr::new(std::ptr::null_mut()));
            let slot2 = Arc::clone(&slot);
            let t = spawn(move || {
                let p = Box::into_raw(Box::new(0u64));
                trace_write(p, "payload");
                unsafe { *p = 41 };
                slot2.store(p, Ordering::Release);
            });
            let p = slot.load(Ordering::Acquire);
            if !p.is_null() {
                trace_read(p, "payload");
                assert_eq!(unsafe { *p }, 41);
            }
            t.join();
            let p = slot.load(Ordering::Acquire);
            trace_forget(p);
            drop(unsafe { Box::from_raw(p) });
        });
        assert!(report.complete, "small model must be fully explored");
        assert!(report.ok(), "unexpected failure: {:?}", report.first_failure());
        assert!(report.schedules > 1, "expected multiple interleavings");
    }

    /// Same model with a Relaxed publication: the explorer must find the
    /// schedule where the consumer dereferences the pointer with no
    /// happens-before edge to the producer's plain write.
    #[test]
    fn message_passing_relaxed_races() {
        let report = explore("mp-relaxed", &ExploreOptions::exhaustive(10_000), || {
            let slot: Arc<AtomicPtr<u64>> = Arc::new(AtomicPtr::new(std::ptr::null_mut()));
            let slot2 = Arc::clone(&slot);
            let t = spawn(move || {
                let p = Box::into_raw(Box::new(0u64));
                trace_write(p, "payload");
                unsafe { *p = 41 };
                slot2.store(p, Ordering::Relaxed);
            });
            let p = slot.load(Ordering::Relaxed);
            if !p.is_null() {
                trace_read(p, "payload");
                let _ = unsafe { *p };
            }
            t.join();
            let p = slot.load(Ordering::Acquire);
            trace_forget(p);
            drop(unsafe { Box::from_raw(p) });
        });
        assert!(
            report.count_of("race") > 0,
            "Relaxed publication must be flagged: {}",
            report.to_json()
        );
    }

    /// Lost update: two plain read-modify-writes guarded by nothing. The
    /// DFS must find the interleaving where an increment disappears.
    #[test]
    fn lost_update_found_exhaustively() {
        let report = explore("lost-update", &ExploreOptions::exhaustive(10_000), || {
            let c = Arc::new(AtomicU64::new(0));
            let c2 = Arc::clone(&c);
            let t = spawn(move || {
                let v = c2.load(Ordering::Relaxed);
                c2.store(v + 1, Ordering::Relaxed);
            });
            let v = c.load(Ordering::Relaxed);
            c.store(v + 1, Ordering::Relaxed);
            t.join();
            assert_eq!(c.load(Ordering::Acquire), 2, "lost update");
        });
        assert!(report.complete);
        assert!(
            report.count_of("panic") > 0,
            "exhaustive DFS must hit the lost-update interleaving"
        );
        // And the atomic version is clean.
        let fixed = explore("no-lost-update", &ExploreOptions::exhaustive(10_000), || {
            let c = Arc::new(AtomicU64::new(0));
            let c2 = Arc::clone(&c);
            let t = spawn(move || {
                c2.fetch_add(1, Ordering::AcqRel);
            });
            c.fetch_add(1, Ordering::AcqRel);
            t.join();
            assert_eq!(c.load(Ordering::Acquire), 2);
        });
        assert!(fixed.complete && fixed.ok(), "{}", fixed.to_json());
    }

    /// Vendored parking_lot mutex under the cooperative runtime: plain
    /// accesses guarded by the lock are race-free and no deadlock is
    /// reported, in every interleaving.
    #[test]
    fn mutex_guarded_counter_clean() {
        let report = explore("mutex-counter", &ExploreOptions::exhaustive(10_000), || {
            let m = Arc::new(parking_lot::Mutex::new(0u64));
            let m2 = Arc::clone(&m);
            // Deliberately non-Sync shared state: the detector, not the
            // type system, is what keeps these accesses race-free here.
            #[allow(clippy::arc_with_non_send_sync)]
            let cell = Arc::new(std::cell::UnsafeCell::new(0u64));
            struct Shared(Arc<std::cell::UnsafeCell<u64>>);
            unsafe impl Send for Shared {}
            let shared = Shared(Arc::clone(&cell));
            let t = spawn(move || {
                // Capture the whole `Shared` wrapper (edition-2021
                // closures would otherwise capture just the inner Arc).
                let shared = shared;
                let mut g = m2.lock();
                *g += 1;
                let p = shared.0.get();
                trace_write(p, "guarded");
                unsafe { *p += 1 };
            });
            {
                let mut g = m.lock();
                *g += 1;
                let p = cell.get();
                trace_write(p, "guarded");
                unsafe { *p += 1 };
            }
            t.join();
            assert_eq!(*m.lock(), 2);
        });
        assert!(report.complete);
        assert!(report.ok(), "unexpected failure: {:?}", report.first_failure());
    }

    /// A real deadlock (lock-order inversion) is detected, not hung on.
    #[test]
    fn lock_order_inversion_deadlocks() {
        let report = explore("deadlock", &ExploreOptions::exhaustive(10_000), || {
            let a = Arc::new(parking_lot::Mutex::new(0u64));
            let b = Arc::new(parking_lot::Mutex::new(0u64));
            let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
            let t = spawn(move || {
                let _ga = a2.lock();
                let _gb = b2.lock();
            });
            let _gb = b.lock();
            let _ga = a.lock();
            drop((_ga, _gb));
            t.join();
        });
        assert!(report.complete);
        assert!(
            report.count_of("deadlock") > 0,
            "inversion must deadlock in some schedule: {}",
            report.to_json()
        );
    }

    /// PCT schedules are reproducible: replaying a failing schedule's
    /// seed yields the same decision trace and the same failure.
    #[test]
    fn pct_seed_replay_is_deterministic() {
        let mut opts = ExploreOptions::pct(0xDEAD_BEEF, 64);
        // Match the change-point window to this tiny model's handful of
        // branchy decisions, as the harness does for real models.
        opts.pct_length_hint = 8;
        let model = || {
            let c = Arc::new(AtomicU64::new(0));
            let c2 = Arc::clone(&c);
            let t = spawn(move || {
                let v = c2.load(Ordering::Relaxed);
                c2.store(v + 1, Ordering::Relaxed);
            });
            let v = c.load(Ordering::Relaxed);
            c.store(v + 1, Ordering::Relaxed);
            t.join();
            assert_eq!(c.load(Ordering::Acquire), 2, "lost update");
        };
        let report = explore("pct-replay", &opts, model);
        let fail = report
            .first_failure()
            .expect("PCT should hit the lost update within 64 schedules")
            .clone();
        let seed = fail.seed.expect("PCT failures carry a seed");
        for _ in 0..3 {
            let out = replay_seed(seed, &opts, model);
            assert_eq!(out.decisions, fail.trace, "decision trace must replay exactly");
            assert_eq!(
                out.failure.as_ref().map(FailureKind::label),
                Some(fail.kind.label()),
                "failure kind must replay"
            );
        }
    }

    /// Preemption bounding shrinks the DFS space but still covers the
    /// single-preemption bug.
    #[test]
    fn preemption_bound_still_finds_single_preemption_bug() {
        let mut opts = ExploreOptions::exhaustive(10_000);
        opts.preemption_bound = Some(1);
        let report = explore("pb1-lost-update", &opts, || {
            let c = Arc::new(AtomicU64::new(0));
            let c2 = Arc::clone(&c);
            let t = spawn(move || {
                let v = c2.load(Ordering::Relaxed);
                c2.store(v + 1, Ordering::Relaxed);
            });
            let v = c.load(Ordering::Relaxed);
            c.store(v + 1, Ordering::Relaxed);
            t.join();
            assert_eq!(c.load(Ordering::Acquire), 2, "lost update");
        });
        assert!(report.complete);
        assert!(report.count_of("panic") > 0, "{}", report.to_json());
        let unbounded = explore("pb-none", &ExploreOptions::exhaustive(10_000), || {
            let c = Arc::new(AtomicU64::new(0));
            let c2 = Arc::clone(&c);
            let t = spawn(move || {
                let v = c2.load(Ordering::Relaxed);
                c2.store(v + 1, Ordering::Relaxed);
            });
            let v = c.load(Ordering::Relaxed);
            c.store(v + 1, Ordering::Relaxed);
            t.join();
        });
        assert!(report.schedules <= unbounded.schedules, "bounding must not grow the space");
    }

    /// Trace replay reproduces an exhaustive failure exactly.
    #[test]
    fn trace_replay_matches() {
        let opts = ExploreOptions::exhaustive(10_000);
        let model = || {
            let c = Arc::new(AtomicU64::new(0));
            let c2 = Arc::clone(&c);
            let t = spawn(move || {
                let v = c2.load(Ordering::Relaxed);
                c2.store(v + 1, Ordering::Relaxed);
            });
            let v = c.load(Ordering::Relaxed);
            c.store(v + 1, Ordering::Relaxed);
            t.join();
            assert_eq!(c.load(Ordering::Acquire), 2, "lost update");
        };
        let report = explore("trace-replay", &opts, model);
        let fail = report.first_failure().expect("must fail").clone();
        let out = replay_trace(&fail.trace, &opts, model);
        assert_eq!(out.decisions, fail.trace);
        assert_eq!(out.failure.as_ref().map(FailureKind::label), Some(fail.kind.label()));
    }

    /// JSON summary shape sanity (CI parses these fields).
    #[test]
    fn json_summary_has_gate_fields() {
        let report = explore("json", &ExploreOptions::exhaustive(100), || {
            let c = Arc::new(AtomicU64::new(0));
            let c2 = Arc::clone(&c);
            spawn(move || {
                c2.fetch_add(1, Ordering::AcqRel);
            })
            .join();
            assert_eq!(c.load(Ordering::Acquire), 1);
        });
        let j = report.to_json();
        for key in [
            "\"model\":",
            "\"strategy\":",
            "\"schedules\":",
            "\"complete\":",
            "\"race_count\":",
            "\"deadlock_count\":",
            "\"failures\":",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
    }
}
