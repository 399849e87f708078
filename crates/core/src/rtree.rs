//! Address radix tree ("R-tree" in the paper, after jemalloc's rtree).
//!
//! Maps 4 KB-aligned pool pages to an opaque `u64` handle so that
//! `free(addr)` can find the slab or extent that owns `addr` (§4.2: "the
//! working thread will first use an R-tree to find its size class").
//!
//! Three levels of 2048/2048/2048 fan-out over the page number. The tree
//! is fully concurrent with **no locks on either path**: interior nodes
//! are installed with a CAS on an `AtomicPtr` slot (the loser of a racing
//! install frees its allocation and adopts the winner's node), and each
//! page's value is a single `AtomicU64`, so readers can never observe a
//! torn mapping — a lookup sees either the old value or the new one,
//! never a mix. Installed interior nodes are immortal until `Drop`, which
//! is what makes lock-free readers safe without hazard pointers or epoch
//! reclamation: a pointer loaded with `Acquire` stays valid for the
//! tree's lifetime.
//!
//! Ranges are *not* updated atomically as a unit: a concurrent reader may
//! see a half-registered range. That is benign in the allocator because a
//! range is only published to other threads (via a root slot or free
//! list) after `insert_range` returns, and unpublished after
//! `remove_range` begins only once no other thread can reach it.

use std::ptr;

use nvalloc_pmem::PmOffset;

use crate::sync::{trace_forget, trace_read, trace_write, AtomicPtr, AtomicU64, Ordering};

const PAGE_SHIFT: u32 = 12;
const L1_BITS: u32 = 11;
const L2_BITS: u32 = 11;
const L3_BITS: u32 = 11;
const FANOUT: usize = 1 << L1_BITS;

/// Leaf level: one value per 4 KB page (0 = unmapped).
struct Leaf {
    vals: [AtomicU64; FANOUT],
}

/// Middle level: CAS-installed pointers to leaves.
struct Mid {
    slots: [AtomicPtr<Leaf>; FANOUT],
}

fn new_leaf() -> *mut Leaf {
    Box::into_raw(Box::new(Leaf { vals: std::array::from_fn(|_| AtomicU64::new(0)) }))
}

fn new_mid() -> *mut Mid {
    Box::into_raw(Box::new(Mid { slots: std::array::from_fn(|_| AtomicPtr::new(ptr::null_mut())) }))
}

/// Install `fresh()` into `slot` if it is still null, or adopt whatever a
/// racing thread installed first. Returns the winning node. The CAS is
/// the linearization point of the install; the loser frees its
/// allocation, so exactly one node ever lives in a slot.
fn install<T>(slot: &AtomicPtr<T>, fresh: impl FnOnce() -> *mut T) -> *mut T {
    let cur = slot.load(Ordering::Acquire);
    if !cur.is_null() {
        return cur;
    }
    let node = fresh();
    // The node's plain initialization must happen-before any reader's
    // deref; the Release half of the CAS provides that edge.
    trace_write(node, "rtree-node");
    match slot.compare_exchange(ptr::null_mut(), node, Ordering::AcqRel, Ordering::Acquire) {
        Ok(_) => node,
        Err(winner) => {
            trace_forget(node);
            // SAFETY: `node` was never published; we still own it.
            unsafe { drop(Box::from_raw(node)) };
            winner
        }
    }
}

/// Concurrent radix tree keyed by pool offset, storing one `u64` value per
/// 4 KB page (0 = unmapped). Reads and writes are both lock-free.
pub struct RTree {
    root: Box<[AtomicPtr<Mid>]>,
}

impl std::fmt::Debug for RTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RTree").finish_non_exhaustive()
    }
}

impl Default for RTree {
    fn default() -> Self {
        Self::new()
    }
}

impl RTree {
    /// Create an empty tree.
    pub fn new() -> Self {
        let mut v = Vec::with_capacity(FANOUT);
        v.resize_with(FANOUT, || AtomicPtr::new(ptr::null_mut()));
        RTree { root: v.into_boxed_slice() }
    }

    /// The three level indexes of `off`; `None` past the tree's
    /// coverage (2^45 bytes), where a caller-supplied address can land.
    #[inline]
    fn split(off: PmOffset) -> Option<(usize, usize, usize)> {
        let page = off >> PAGE_SHIFT;
        let i3 = (page & ((1 << L3_BITS) - 1)) as usize;
        let i2 = (page >> L3_BITS & ((1 << L2_BITS) - 1)) as usize;
        let i1 = (page >> (L3_BITS + L2_BITS)) as usize;
        (i1 < FANOUT).then_some((i1, i2, i3))
    }

    /// The leaf slot for `off`, descending without installing anything.
    #[inline]
    fn slot(&self, off: PmOffset) -> Option<&AtomicU64> {
        let (i1, i2, i3) = Self::split(off)?;
        let mid = self.root[i1].load(Ordering::Acquire);
        if mid.is_null() {
            return None;
        }
        trace_read(mid, "rtree-node");
        // SAFETY: non-null interior nodes live until Drop (&self borrow).
        let leaf = unsafe { (*mid).slots[i2].load(Ordering::Acquire) };
        if leaf.is_null() {
            return None;
        }
        trace_read(leaf, "rtree-node");
        // SAFETY: same lifetime argument as above for the leaf node.
        Some(unsafe { &(*leaf).vals[i3] })
    }

    /// The leaf slot for `off`, CAS-installing missing interior nodes.
    #[inline]
    fn slot_or_install(&self, off: PmOffset) -> &AtomicU64 {
        // Only the allocator's own layout inserts, so this cannot fail.
        let (i1, i2, i3) =
            Self::split(off).unwrap_or_else(|| panic!("offset {off:#x} beyond rtree coverage"));
        let mid = install(&self.root[i1], new_mid);
        trace_read(mid, "rtree-node");
        // SAFETY: installed nodes live until Drop (&self borrow).
        let leaf = install(unsafe { &(*mid).slots[i2] }, new_leaf);
        trace_read(leaf, "rtree-node");
        // SAFETY: `leaf` was just installed and lives until Drop.
        unsafe { &(*leaf).vals[i3] }
    }

    /// Look up the value covering `off` (any byte within a registered
    /// range). Returns `None` for unmapped addresses, including any past
    /// the tree's coverage. Lock-free.
    pub fn lookup(&self, off: PmOffset) -> Option<u64> {
        let v = self.slot(off)?.load(Ordering::Acquire);
        (v != 0).then_some(v)
    }

    /// Register `value` for every page in `[off, off + len)`. Lock-free;
    /// concurrent inserts to disjoint ranges never contend beyond the
    /// one-time interior-node installs.
    ///
    /// # Panics
    /// Panics if `value == 0` (reserved for "unmapped") or `off` is not
    /// page aligned.
    pub fn insert_range(&self, off: PmOffset, len: usize, value: u64) {
        assert!(value != 0, "rtree value 0 is reserved");
        assert_eq!(off & ((1 << PAGE_SHIFT) - 1), 0, "range must be page aligned");
        let pages = (len as u64).div_ceil(1 << PAGE_SHIFT);
        for p in 0..pages {
            self.slot_or_install(off + (p << PAGE_SHIFT)).store(value, Ordering::Release);
        }
    }

    /// Remove the registration for every page in `[off, off + len)`.
    /// Lock-free; leaves interior nodes in place for reuse.
    pub fn remove_range(&self, off: PmOffset, len: usize) {
        let pages = (len as u64).div_ceil(1 << PAGE_SHIFT);
        for p in 0..pages {
            if let Some(slot) = self.slot(off + (p << PAGE_SHIFT)) {
                slot.store(0, Ordering::Release);
            }
        }
    }
}

impl Drop for RTree {
    fn drop(&mut self) {
        for slot in self.root.iter() {
            let mid = slot.load(Ordering::Acquire);
            if mid.is_null() {
                continue;
            }
            // SAFETY: `&mut self` means no concurrent access; every
            // non-null pointer was Box-allocated by install() exactly once.
            unsafe {
                for ls in (*mid).slots.iter() {
                    let leaf = ls.load(Ordering::Acquire);
                    if !leaf.is_null() {
                        trace_forget(leaf);
                        drop(Box::from_raw(leaf));
                    }
                }
                trace_forget(mid);
                drop(Box::from_raw(mid));
            }
        }
    }
}

/// What an rtree handle points at. Packed into the stored `u64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Owner {
    /// A small-allocation slab at this slab base offset.
    Slab {
        /// Pool offset of the slab base.
        slab: PmOffset,
        /// Arena that owns the slab.
        arena: u32,
    },
    /// A large extent; the handle is the VEH id.
    Extent {
        /// Index of the virtual extent header (shard-tagged; see
        /// `crate::shards`).
        veh: u32,
    },
}

const TAG_SLAB: u64 = 1;
const TAG_EXTENT: u64 = 2;

impl Owner {
    /// Pack for storage in the rtree.
    pub fn pack(self) -> u64 {
        match self {
            // Slab bases are 64 KB aligned: the low 16 bits are free for
            // the tag and arena id.
            Owner::Slab { slab, arena } => {
                debug_assert_eq!(slab % crate::size_class::SLAB_SIZE as u64, 0);
                debug_assert!(arena < 1 << 14);
                TAG_SLAB | (arena as u64) << 2 | slab
            }
            Owner::Extent { veh } => TAG_EXTENT | (veh as u64) << 2,
        }
    }

    /// Unpack a stored handle.
    pub fn unpack(v: u64) -> Owner {
        match v & 0b11 {
            TAG_SLAB => Owner::Slab { slab: v & !0xffff, arena: (v >> 2 & 0x3fff) as u32 },
            TAG_EXTENT => Owner::Extent { veh: (v >> 2) as u32 },
            t => unreachable!("corrupt rtree tag {t}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_unmapped_is_none() {
        let t = RTree::new();
        assert_eq!(t.lookup(0), None);
        assert_eq!(t.lookup(123 << 20), None);
    }

    #[test]
    fn range_roundtrip() {
        let t = RTree::new();
        t.insert_range(64 << 10, 64 << 10, 42);
        assert_eq!(t.lookup(64 << 10), Some(42));
        assert_eq!(t.lookup((64 << 10) + 5000), Some(42));
        assert_eq!(t.lookup((128 << 10) - 1), Some(42));
        assert_eq!(t.lookup(128 << 10), None);
        assert_eq!(t.lookup((64 << 10) - 1), None);
        t.remove_range(64 << 10, 64 << 10);
        assert_eq!(t.lookup(64 << 10), None);
    }

    #[test]
    fn spans_level_boundaries() {
        let t = RTree::new();
        // A range crossing an 8 MB (L3) boundary.
        let base = (1u64 << (PAGE_SHIFT + L3_BITS)) - 8192;
        t.insert_range(base, 16384, 7);
        assert_eq!(t.lookup(base), Some(7));
        assert_eq!(t.lookup(base + 16383), Some(7));
    }

    #[test]
    fn owner_packing_roundtrip() {
        let s = Owner::Slab { slab: 7 * crate::size_class::SLAB_SIZE as u64, arena: 3 };
        assert_eq!(Owner::unpack(s.pack()), s);
        let e = Owner::Extent { veh: 12345 };
        assert_eq!(Owner::unpack(e.pack()), e);
    }

    #[test]
    fn concurrent_readers_and_writers() {
        let t = std::sync::Arc::new(RTree::new());
        std::thread::scope(|s| {
            for k in 0..4u64 {
                let t = std::sync::Arc::clone(&t);
                s.spawn(move || {
                    for i in 0..100u64 {
                        let off = (k * 100 + i) * 4096;
                        t.insert_range(off, 4096, off + 1);
                        assert_eq!(t.lookup(off), Some(off + 1));
                    }
                });
            }
        });
        for k in 0..400u64 {
            assert_eq!(t.lookup(k * 4096), Some(k * 4096 + 1));
        }
    }

    #[test]
    fn racing_installs_into_one_subtree_lose_nothing() {
        // All offsets share the same mid node and leaf, so every thread
        // races the same CAS installs; each value must still land.
        let t = std::sync::Arc::new(RTree::new());
        std::thread::scope(|s| {
            for k in 0..8u64 {
                let t = std::sync::Arc::clone(&t);
                s.spawn(move || {
                    t.insert_range(k * 4096, 4096, k + 1);
                });
            }
        });
        for k in 0..8u64 {
            assert_eq!(t.lookup(k * 4096), Some(k + 1));
        }
    }

    #[test]
    fn drop_frees_installed_subtrees() {
        let t = RTree::new();
        // Touch several L1 subtrees so Drop has real work to do.
        for i1 in 0..3u64 {
            t.insert_range(i1 << (PAGE_SHIFT + L2_BITS + L3_BITS), 4096, 9);
        }
        drop(t); // must not leak or double-free (run under Miri/ASan)
    }
}
