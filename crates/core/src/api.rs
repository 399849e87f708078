//! The allocator interface shared by NVAlloc and every baseline allocator
//! in the workspace.
//!
//! The API mirrors the paper's programming model (§4.1): allocation and
//! deallocation are *atomic with respect to a persistent destination slot*.
//! `malloc_to(size, dest)` allocates a block and installs its offset at
//! `dest`; `free_from(dest)` frees whatever `dest` points at and clears it.
//! Offsets, not virtual addresses, flow through the API so heaps can be
//! remapped after recovery.
//!
//! Allocators are cloneable handles ([`PmAllocator`] implementors wrap an
//! `Arc`); each worker thread obtains its own [`AllocThread`], which owns
//! the thread's PM clock and any thread-local caches.

use std::fmt::Debug;
use std::sync::Arc;

use nvalloc_pmem::{PmOffset, PmResult, PmThread, PmemPool};

use crate::telemetry::MetricsSnapshot;

/// A persistent-memory allocator instance.
pub trait PmAllocator: Send + Sync + Debug {
    /// Short display name ("NVAlloc-LOG", "PMDK", …).
    fn name(&self) -> String;

    /// The pool this allocator manages.
    fn pool(&self) -> &Arc<PmemPool>;

    /// Create a per-thread handle. One per worker thread.
    fn thread(&self) -> Box<dyn AllocThread>;

    /// Pool offset of root slot `i` (an 8-byte persistent location usable
    /// as a `malloc_to` destination).
    ///
    /// # Panics
    /// Panics if `i >= root_count()`.
    fn root_offset(&self, i: usize) -> PmOffset;

    /// Number of reserved root slots.
    fn root_count(&self) -> usize;

    /// Bytes of heap currently mapped (extent regions + metadata logs);
    /// the "memory consumption" metric of Figs. 1b/13/15.
    fn heap_mapped_bytes(&self) -> usize;

    /// High-water mark of [`PmAllocator::heap_mapped_bytes`].
    fn peak_mapped_bytes(&self) -> usize;

    /// Bytes handed out and not yet freed (rounded to class/extent sizes).
    fn live_bytes(&self) -> usize;

    /// A snapshot of the allocator's internal telemetry counters and
    /// op-latency histograms (see [`crate::telemetry`]). Allocators
    /// without internal instrumentation — the baselines — return the
    /// all-zero default, so callers can diff and serialize snapshots
    /// uniformly across allocators.
    fn metrics(&self) -> MetricsSnapshot {
        MetricsSnapshot::default()
    }

    /// Merged flight-recorder stream serialized as Chrome trace-event
    /// JSON, or `None` when tracing is disabled or unsupported (see
    /// [`crate::trace`]). Baselines have no flight recorder and inherit
    /// this default.
    fn trace_json(&self) -> Option<String> {
        None
    }

    /// The heap-observatory timeline serialized as JSON lines (one
    /// [`crate::observe::TimelineSample`] object per line), or `None`
    /// when the timeline sampler is disabled or unsupported. Baselines
    /// have no sampler and inherit this default.
    fn timeline_json(&self) -> Option<String> {
        None
    }

    /// The sampled heap profile serialized as one JSON object (site
    /// table and retained-set rows — see [`crate::prof`]), or `None`
    /// when profiling is disabled or unsupported. Baselines
    /// have no profiler and inherit this default.
    fn profile_json(&self) -> Option<String> {
        None
    }

    /// The sampled heap profile as collapsed-stack text (one
    /// `label live_bytes_estimate` line per site, flamegraph-ready), or
    /// `None` when profiling is disabled or unsupported.
    fn profile_collapsed(&self) -> Option<String> {
        None
    }

    /// Drain deferred work without shutting down: return every arena's
    /// pending remote (cross-arena) frees to their slabs and fence any
    /// resulting flushes, leaving an idle heap with no stranded queues.
    /// This is the defined "clean point" the pmsan shutdown audit
    /// assumes. Baselines defer nothing and inherit this no-op.
    fn quiesce(&self) {}

    /// Orderly shutdown (the paper's `nvalloc_exit()`): flush volatile
    /// state that recovery would otherwise have to reconstruct and mark
    /// the heap cleanly closed.
    fn exit(&self);
}

/// A per-thread allocator handle.
pub trait AllocThread: Send {
    /// Allocate `size` bytes and atomically install the block offset at
    /// the 8-byte-aligned persistent slot `dest`. Returns the block offset.
    ///
    /// # Errors
    /// [`nvalloc_pmem::PmError::OutOfMemory`] when the heap is exhausted,
    /// [`nvalloc_pmem::PmError::InvalidRequest`] for zero-size requests.
    fn malloc_to(&mut self, size: usize, dest: PmOffset) -> PmResult<PmOffset>;

    /// Allocate `size` bytes whose offset is aligned to `align` (a power
    /// of two) and atomically install it at `dest`, like
    /// [`AllocThread::malloc_to`]. This is the oversize-alignment hook of
    /// the `GlobalAlloc` front end: implementations that can serve
    /// naturally aligned extents override it; the default honours only
    /// the ≤ 8-byte alignment every block already has.
    ///
    /// # Errors
    /// [`nvalloc_pmem::PmError::InvalidRequest`] when the implementation
    /// cannot honour `align`; otherwise as [`AllocThread::malloc_to`].
    fn malloc_aligned_to(
        &mut self,
        size: usize,
        align: usize,
        dest: PmOffset,
    ) -> PmResult<PmOffset> {
        if align <= 8 {
            return self.malloc_to(size, dest);
        }
        let _ = size;
        Err(nvalloc_pmem::PmError::InvalidRequest("allocator cannot serve oversize alignment"))
    }

    /// Free the block whose offset is stored at `dest` and clear `dest`.
    ///
    /// # Errors
    /// [`nvalloc_pmem::PmError::NotAllocated`] if `dest` holds no live
    /// allocation (double free).
    fn free_from(&mut self, dest: PmOffset) -> PmResult<()>;

    /// Return all thread-cached blocks to their slabs (thread exit).
    fn flush_cache(&mut self);

    /// The thread's PM handle (virtual clock).
    fn pm(&self) -> &PmThread;

    /// Mutable access to the PM handle (workloads use it to persist their
    /// own payload writes on this thread's clock).
    fn pm_mut(&mut self) -> &mut PmThread;
}
