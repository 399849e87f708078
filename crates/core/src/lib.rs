//! NVAlloc: a persistent-memory allocator that rethinks heap metadata
//! management (reproduction of Dang et al., ASPLOS 2022).
//!
//! NVAlloc serves `malloc`/`free` on an emulated persistent-memory pool
//! ([`nvalloc_pmem::PmemPool`]) and attacks three metadata pathologies of
//! prior PM allocators:
//!
//! 1. **Cache-line reflushes** — consecutive small allocations update
//!    adjacent bitmap bits and WAL slots, re-flushing the same cache line.
//!    NVAlloc *interleaves* the mapping from blocks to bitmap bits across
//!    bit stripes in different cache lines (§5.1) and splits the thread
//!    cache into per-stripe sub-tcaches served round-robin.
//! 2. **Small random metadata writes** — in-place extent-header updates
//!    scatter small writes across the heap. NVAlloc appends 8-byte records
//!    to a *log-structured bookkeeping log* instead (§5.3).
//! 3. **Segregation-induced fragmentation** — static slab size classes
//!    strand free space. NVAlloc *morphs* mostly-empty slabs into another
//!    size class while old-class blocks are still live (§5.2).
//!
//! Two crash-consistency variants are provided: [`Variant::Log`]
//! (write-ahead logging; strongly consistent) and [`Variant::Gc`]
//! (post-crash conservative garbage collection; weakly consistent).
//!
//! # Quick start
//!
//! ```
//! use std::sync::Arc;
//! use nvalloc::{NvAllocator, NvConfig};
//! use nvalloc::api::{AllocThread, PmAllocator};
//! use nvalloc_pmem::{PmemConfig, PmemPool, LatencyMode};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let pool = PmemPool::new(PmemConfig::default()
//!     .pool_size(32 << 20)
//!     .latency_mode(LatencyMode::Off));
//! let alloc = NvAllocator::create(Arc::clone(&pool), NvConfig::log())?;
//! let mut t = alloc.thread();
//!
//! // Allocate 100 bytes and attach them to root slot 0, atomically.
//! let root = alloc.root_offset(0);
//! let block = t.malloc_to(100, root)?;
//! assert_eq!(pool.read_u64(root), block);
//! t.free_from(root)?;
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod api;
mod arena;
mod bitmap;
mod booklog;
mod config;
pub mod doctor;
mod front;
mod geometry;
pub mod global;
mod interleave;
mod large;
mod morph;
pub mod observe;
pub mod prof;
mod recovery;
#[cfg(not(feature = "sched"))]
mod remote;
#[cfg(feature = "sched")]
pub mod remote;
mod rtree;
mod shards;
mod size_class;
mod slab;
pub mod sync;
mod tcache;
pub mod telemetry;
pub mod trace;
mod wal;

pub use config::{NvConfig, Variant};
pub use front::{NvAllocator, NvThread, RecoveryReport, SlabUtilization};
pub use global::GlobalNv;
pub use size_class::{class_size, size_to_class, ClassId, LARGE_MIN, NUM_CLASSES, SLAB_SIZE};

/// Building blocks shared with the baseline allocators in
/// `nvalloc-baselines` (extent management, bitmaps, geometry, the address
/// radix tree). Semver-exempt: these are implementation details exposed so
/// every allocator in the workspace runs on identical substrate machinery,
/// isolating the *policy* differences the paper measures.
pub mod internals {
    pub use crate::bitmap::{BitmapLayout, PmBitmap};
    pub use crate::booklog::{
        ChunkHeaderRaw, LogHeaderRaw, CHUNK_BYTES, CHUNK_HEADER_BYTES, LOG_HEADER_BYTES,
    };
    pub use crate::geometry::{GeometryTable, SlabGeometry, SLAB_FIXED_HEADER};
    pub use crate::interleave::Interleave;
    pub use crate::large::{
        smootherstep, ExtentState, LargeAlloc, LargeConfig, LargeStats, RecoveredExtent, Veh,
        VehId, HUGE_MIN, PAGE, REGION_BYTES, REGION_HEADER_BYTES, VEH_LOCAL_BITS, VEH_LOCAL_MASK,
    };
    pub use crate::rtree::{Owner, RTree};
    pub use crate::size_class::CLASS_SIZES;
    pub use crate::slab::SlabHeaderRaw;
    pub use crate::telemetry::{LockStats, TimedGuard, TimedMutex};
    pub use crate::wal::{WalEntryRaw, WAL_ENTRY_BYTES};
}

pub use nvalloc_pmem::{PmError, PmOffset, PmResult};

/// Round `x` up to a multiple of power-of-two `a`.
pub(crate) fn align_up64(x: u64, a: u64) -> u64 {
    debug_assert!(a.is_power_of_two());
    (x + a - 1) & !(a - 1)
}
