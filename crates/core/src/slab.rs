//! Slabs: 64 KB containers of fixed-size blocks (§2.2, §5.2).
//!
//! Each slab has a **persistent header** (everything recovery needs) and a
//! **volatile header** (*vslab*) for fast free-block search. The persistent
//! header's fixed fields live in the slab's first cache line:
//!
//! ```text
//! word 0: magic:u32 | size_class:u16 | flag:u16        (flag = morph step)
//! word 1: data_offset:u32 | old_size_class:u16 | index_len:u16
//! word 2: old_data_offset:u32 | index_table_off:u32
//! ```
//!
//! followed by the bitmap region (at byte 64) and — for morphing slabs —
//! the index table. `data_offset` is explicit because a morphed slab's data
//! region starts after the index table (Fig. 5).
//!
//! The *persistent* bitmap records user allocations (it is what crash
//! recovery trusts); the *volatile* bitmap in the vslab additionally marks
//! blocks that are reserved by thread caches or blocked by live old-class
//! blocks during morphing, i.e. everything that must not be handed out.

use nvalloc_pmem::{FlushKind, PmOffset, PmThread, PmemPool};

use crate::bitmap::PmBitmap;
use crate::geometry::{GeometryTable, SlabGeometry};
use crate::large::VehId;
use crate::size_class::{class_size, ClassId, SLAB_SIZE};

/// Magic tag of an initialised slab header.
pub const SLAB_MAGIC: u32 = 0x514A_B001;

/// `old_size_class` value meaning "not morphing".
pub const NO_OLD_CLASS: u16 = u16::MAX;

/// Morph progress values stored in the header `flag` field (§5.2).
pub mod flag {
    /// Not morphing (also the post-morph steady state).
    pub const NONE: u16 = 0;
    /// Step 1 done: old_size_class / old_data_offset copied.
    pub const OLD_SAVED: u16 = 1;
    /// Step 2 done: index table written.
    pub const INDEX_WRITTEN: u16 = 2;
    /// Step 3 done: new class/offset/bitmap in place (roll forward).
    pub const NEW_WRITTEN: u16 = 3;
}

/// One entry of the morph index table: the old block's index and its
/// allocation state, packed in 2 bytes (§5.2: "each table entry is only 2B").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexEntry {
    /// Block index within the *old* data layout.
    pub old_idx: u16,
    /// True while the old block is live.
    pub allocated: bool,
}

impl IndexEntry {
    /// Pack into the persistent 2-byte form.
    pub fn pack(self) -> u16 {
        debug_assert!(self.old_idx < 1 << 15);
        self.old_idx | (self.allocated as u16) << 15
    }

    /// Unpack from the persistent form.
    pub fn unpack(v: u16) -> IndexEntry {
        IndexEntry { old_idx: v & 0x7fff, allocated: v >> 15 == 1 }
    }
}

/// Volatile morph state of a `slab_in` (§5.2).
#[derive(Debug, Clone)]
pub struct MorphState {
    /// Size class of the *old* blocks still live in the slab.
    pub old_class: ClassId,
    /// Data offset of the old layout.
    pub old_data_offset: usize,
    /// Offset (within the slab) of the persistent index table.
    pub index_off: usize,
    /// Volatile mirror of the index table.
    pub index: Vec<IndexEntry>,
    /// Number of live old blocks (`cnt_slab`).
    pub cnt_slab: usize,
    /// Per-new-block count of overlapping live old blocks (`cnt_block`).
    pub cnt_block: Vec<u16>,
}

/// The volatile slab header.
#[derive(Debug)]
pub struct VSlab {
    /// Slab base offset.
    pub off: PmOffset,
    /// Current size class.
    pub class: ClassId,
    /// VEH of the backing 64 KB extent.
    pub veh: VehId,
    /// Offset of block 0 (may exceed the class geometry's when morphed).
    pub data_offset: usize,
    /// Number of blocks behind `data_offset`.
    pub nblocks: usize,
    /// Volatile occupancy bitmap: bit set = unavailable (user-allocated,
    /// tcache-reserved, or morph-blocked).
    taken: Vec<u64>,
    /// Number of available blocks.
    pub nfree: usize,
    /// Morph state while this is a `slab_in`.
    pub morph: Option<MorphState>,
    /// LRU token (maintained by the arena).
    pub lru_token: u64,
    /// Whether the slab currently has a live entry in its class freelist.
    /// Maintained by the arena: cleared for O(1) logical removal, with the
    /// stale deque entry discarded lazily on pop.
    pub in_freelist: bool,
}

impl VSlab {
    /// Initialise a brand-new slab: write + persist its header and bitmap,
    /// and return the vslab.
    pub fn create(
        pool: &PmemPool,
        t: &mut PmThread,
        off: PmOffset,
        class: ClassId,
        veh: VehId,
        geom: &SlabGeometry,
        persist: bool,
    ) -> VSlab {
        debug_assert_eq!(off % SLAB_SIZE as u64, 0);
        pool.write_u64(off, header_word0(class as u16, flag::NONE));
        pool.write_u64(off + 8, header_word1(geom.data_offset as u32, NO_OLD_CLASS, 0));
        pool.write_u64(off + 16, 0);
        let bm = PmBitmap::new(off + geom.bitmap_off as u64, geom.bitmap);
        bm.clear_all(pool);
        if persist {
            let hdr_len = geom.bitmap_off + geom.bitmap.bytes();
            pool.charge_store(t, off, hdr_len);
            pool.flush(t, off, hdr_len, FlushKind::Meta);
            pool.fence(t);
        }
        VSlab {
            off,
            class,
            veh,
            data_offset: geom.data_offset,
            nblocks: geom.nblocks,
            taken: vec![0; geom.nblocks.div_ceil(64)],
            nfree: geom.nblocks,
            morph: None,
            lru_token: 0,
            in_freelist: false,
        }
    }

    /// Build a vslab shell from recovered persistent-header fields; the
    /// volatile bitmap starts empty — call
    /// [`VSlab::resync_from_persistent`] once repairs are done.
    pub fn create_shell(
        off: PmOffset,
        class: ClassId,
        veh: VehId,
        data_offset: usize,
        nblocks: usize,
    ) -> VSlab {
        VSlab {
            off,
            class,
            veh,
            data_offset,
            nblocks,
            taken: vec![0; nblocks.div_ceil(64).max(1)],
            nfree: nblocks,
            morph: None,
            lru_token: 0,
            in_freelist: false,
        }
    }

    /// The persistent bitmap view for this slab.
    pub fn pbitmap(&self, geoms: &GeometryTable) -> PmBitmap {
        let g = geoms.of(self.class);
        PmBitmap::new(self.off + g.bitmap_off as u64, g.bitmap)
    }

    /// Block size in bytes.
    pub fn block_size(&self) -> usize {
        class_size(self.class)
    }

    /// Address of block `i`.
    pub fn block_addr(&self, i: usize) -> PmOffset {
        debug_assert!(i < self.nblocks);
        self.off + (self.data_offset + i * self.block_size()) as u64
    }

    /// Index of the block containing `addr` under the *current* layout, if
    /// `addr` is block-aligned and in range.
    pub fn block_index(&self, addr: PmOffset) -> Option<usize> {
        let rel = addr.checked_sub(self.off + self.data_offset as u64)?;
        let bs = self.block_size() as u64;
        if rel % bs != 0 {
            return None;
        }
        let i = (rel / bs) as usize;
        (i < self.nblocks).then_some(i)
    }

    /// True if block `i` is unavailable (allocated / reserved / blocked).
    pub fn is_taken(&self, i: usize) -> bool {
        self.taken[i / 64] >> (i % 64) & 1 == 1
    }

    /// Reserve one available block (volatile), returning its index.
    pub fn take_block(&mut self) -> Option<usize> {
        if self.nfree == 0 {
            return None;
        }
        for (w, word) in self.taken.iter_mut().enumerate() {
            if *word != u64::MAX {
                let bit = word.trailing_ones() as usize;
                let i = w * 64 + bit;
                if i >= self.nblocks {
                    return None; // only tail padding left
                }
                *word |= 1 << bit;
                self.nfree -= 1;
                return Some(i);
            }
        }
        None
    }

    /// Mark block `i` unavailable (volatile). The block must currently be
    /// available.
    pub fn reserve_block(&mut self, i: usize) {
        debug_assert!(!self.is_taken(i));
        self.taken[i / 64] |= 1 << (i % 64);
        self.nfree -= 1;
    }

    /// Return block `i` to availability (volatile).
    pub fn release_block(&mut self, i: usize) {
        debug_assert!(self.is_taken(i));
        self.taken[i / 64] &= !(1 << (i % 64));
        self.nfree += 1;
    }

    /// Occupied fraction by the volatile view (allocated + reserved +
    /// blocked).
    pub fn occupancy(&self) -> f64 {
        if self.nblocks == 0 {
            return 1.0;
        }
        (self.nblocks - self.nfree) as f64 / self.nblocks as f64
    }

    /// True when every block is available and no old-class blocks remain.
    pub fn is_completely_free(&self) -> bool {
        self.nfree == self.nblocks && self.morph.as_ref().is_none_or(|m| m.cnt_slab == 0)
    }

    /// Rebuild the volatile bitmap from the persistent one (recovery and
    /// morph bookkeeping).
    pub fn resync_from_persistent(&mut self, pool: &PmemPool, geoms: &GeometryTable) {
        let bm = self.pbitmap(geoms);
        self.taken = vec![0; self.nblocks.div_ceil(64)];
        self.nfree = self.nblocks;
        for i in 0..self.nblocks {
            if bm.get(pool, i) {
                self.reserve_block(i);
            }
        }
        // Re-block positions occupied by live old blocks.
        if let Some(m) = self.morph.clone() {
            for j in 0..self.nblocks.min(m.cnt_block.len()) {
                if m.cnt_block[j] > 0 && !self.is_taken(j) {
                    self.reserve_block(j);
                }
            }
        }
    }
}

/// Compose header word 0.
pub fn header_word0(class: u16, flag: u16) -> u64 {
    SLAB_MAGIC as u64 | (class as u64) << 32 | (flag as u64) << 48
}

/// Compose header word 1.
pub fn header_word1(data_offset: u32, old_class: u16, index_len: u16) -> u64 {
    data_offset as u64 | (old_class as u64) << 32 | (index_len as u64) << 48
}

/// Raw media image of the 24 B fixed slab header (three packed words;
/// [`SlabHeader`] is the decoded view). The pack/unpack helpers above
/// define the bit layout inside each word; this mirror pins the word
/// count and offsets via `tests/layout_sizes.rs` (kept in sync by the
/// `repr-c-sizes` lint rule).
#[repr(C)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlabHeaderRaw {
    /// Word 0: `flag << 48 | class << 32 | SLAB_MAGIC` (see
    /// [`header_word0`]).
    pub magic_class_flag: u64,
    /// Word 1: `index_len << 48 | old_class << 32 | data_offset` (see
    /// [`header_word1`]).
    pub data_old_index: u64,
    /// Word 2: `index_table_off << 32 | old_data_offset`.
    pub old_data_table: u64,
}

/// Decoded persistent slab header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlabHeader {
    /// Current size class field.
    pub class: u16,
    /// Morph step flag.
    pub flag: u16,
    /// Data offset field.
    pub data_offset: u32,
    /// Old size class (`NO_OLD_CLASS` when not morphing).
    pub old_class: u16,
    /// Number of index-table entries.
    pub index_len: u16,
    /// Old data offset.
    pub old_data_offset: u32,
    /// Offset of the index table within the slab.
    pub index_table_off: u32,
}

impl SlabHeader {
    /// Read and validate the header at `slab`.
    pub fn read(pool: &PmemPool, slab: PmOffset) -> Option<SlabHeader> {
        let w0 = pool.read_u64(slab);
        if w0 as u32 != SLAB_MAGIC {
            return None;
        }
        let w1 = pool.read_u64(slab + 8);
        let w2 = pool.read_u64(slab + 16);
        Some(SlabHeader {
            class: (w0 >> 32) as u16,
            flag: (w0 >> 48) as u16,
            data_offset: w1 as u32,
            old_class: (w1 >> 32) as u16,
            index_len: (w1 >> 48) as u16,
            old_data_offset: w2 as u32,
            index_table_off: (w2 >> 32) as u32,
        })
    }

    /// True when the morph fields name an index table that can be read
    /// in place: `index_table_off` is even, the table lies inside
    /// `[lo, hi)`, and `old_class` is a real class. For a settled header
    /// the bounds are the class's bitmap end and `data_offset`. Recovery
    /// reclaims a slab failing this as a leak; the doctor reports it as
    /// `morph_index`.
    pub fn morph_index_valid(&self, lo: usize, hi: usize) -> bool {
        let off = self.index_table_off as usize;
        off.is_multiple_of(2)
            && off >= lo
            && off + 2 * self.index_len as usize <= hi
            && (self.old_class as usize) < crate::size_class::NUM_CLASSES
    }

    /// True if the header records a morph in progress or a live `slab_in`.
    #[allow(dead_code)] // exercised by unit and integration tests
    pub fn is_morphed(&self) -> bool {
        self.old_class != NO_OLD_CLASS
    }
}

/// Persist the flag field (atomic word-0 rewrite + flush + fence). Every
/// morph step transition — forward during the transform, backward during
/// recovery rollback — funnels through here, so this is also where the
/// flight recorder's `MorphStep` events are emitted.
pub fn persist_flag(pool: &PmemPool, t: &mut PmThread, slab: PmOffset, class: u16, flag: u16) {
    pool.persist_u64(t, slab, header_word0(class, flag), FlushKind::Meta);
    t.trace(crate::trace::EventKind::MorphStep.code(), flag as u64, slab);
}

/// Read one persistent index-table entry.
pub fn read_index_entry(pool: &PmemPool, slab: PmOffset, table_off: u32, i: usize) -> IndexEntry {
    IndexEntry::unpack(pool.read_u16(slab + table_off as u64 + (i * 2) as u64))
}

/// Write + persist one index-table entry (the morph release path; §5.2
/// "NVAlloc needs to modify its state in the index_table and flush it").
pub fn persist_index_entry(
    pool: &PmemPool,
    t: &mut PmThread,
    slab: PmOffset,
    table_off: u32,
    i: usize,
    e: IndexEntry,
) {
    let off = slab + table_off as u64 + (i * 2) as u64;
    pool.write_u16(off, e.pack());
    pool.charge_store(t, off, 2);
    pool.flush(t, off, 2, FlushKind::Meta);
    pool.fence(t);
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvalloc_pmem::{LatencyMode, PmemConfig};
    use std::sync::Arc;

    fn pool() -> Arc<PmemPool> {
        PmemPool::new(PmemConfig::default().pool_size(1 << 20).latency_mode(LatencyMode::Off))
    }

    fn geoms() -> GeometryTable {
        GeometryTable::new(6)
    }

    #[test]
    fn index_entry_roundtrip() {
        for (i, a) in [(0u16, true), (123, false), (0x7fff, true)] {
            let e = IndexEntry { old_idx: i, allocated: a };
            assert_eq!(IndexEntry::unpack(e.pack()), e);
        }
    }

    #[test]
    fn create_and_read_header() {
        let p = pool();
        let mut t = p.register_thread();
        let g = geoms();
        let class = crate::size_class::size_to_class(64).unwrap();
        let vs = VSlab::create(&p, &mut t, 0, class, 7, g.of(class), true);
        let h = SlabHeader::read(&p, 0).expect("valid header");
        assert_eq!(h.class as usize, class);
        assert_eq!(h.flag, flag::NONE);
        assert_eq!(h.data_offset as usize, g.of(class).data_offset);
        assert_eq!(h.old_class, NO_OLD_CLASS);
        assert!(!h.is_morphed());
        assert_eq!(vs.nfree, vs.nblocks);
        assert!(SlabHeader::read(&p, 65536).is_none(), "uninitialised area has no header");
    }

    #[test]
    fn take_release_roundtrip() {
        let p = pool();
        let mut t = p.register_thread();
        let g = geoms();
        let class = 4; // 64 B
        let mut vs = VSlab::create(&p, &mut t, 0, class, 0, g.of(class), false);
        let total = vs.nblocks;
        let a = vs.take_block().unwrap();
        let b = vs.take_block().unwrap();
        assert_ne!(a, b);
        assert_eq!(vs.nfree, total - 2);
        assert!(vs.is_taken(a));
        vs.release_block(a);
        assert!(!vs.is_taken(a));
        assert_eq!(vs.nfree, total - 1);
    }

    #[test]
    fn exhaustion_returns_none() {
        let p = pool();
        let mut t = p.register_thread();
        let g = geoms();
        let class = crate::size_class::NUM_CLASSES - 1; // 16 KB: few blocks
        let mut vs = VSlab::create(&p, &mut t, 0, class, 0, g.of(class), false);
        for _ in 0..vs.nblocks {
            assert!(vs.take_block().is_some());
        }
        assert_eq!(vs.take_block(), None);
        assert_eq!(vs.nfree, 0);
        assert!((vs.occupancy() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn block_addr_index_inverse() {
        let p = pool();
        let mut t = p.register_thread();
        let g = geoms();
        let class = 8; // 128 B
        let vs = VSlab::create(&p, &mut t, 65536, class, 0, g.of(class), false);
        for i in [0, 1, 17, vs.nblocks - 1] {
            let addr = vs.block_addr(i);
            assert_eq!(vs.block_index(addr), Some(i));
        }
        assert_eq!(vs.block_index(vs.block_addr(0) + 1), None, "misaligned");
        assert_eq!(vs.block_index(vs.off), None, "header is not a block");
    }

    #[test]
    fn resync_matches_persistent_bits() {
        let p = pool();
        let mut t = p.register_thread();
        let g = geoms();
        let class = 4;
        let mut vs = VSlab::create(&p, &mut t, 0, class, 0, g.of(class), false);
        let bm = vs.pbitmap(&g);
        for i in [3usize, 9, 100] {
            bm.write_volatile(&p, i, true);
        }
        vs.resync_from_persistent(&p, &g);
        assert_eq!(vs.nfree, vs.nblocks - 3);
        assert!(vs.is_taken(3) && vs.is_taken(9) && vs.is_taken(100));
        assert!(!vs.is_taken(4));
    }

    #[test]
    fn flag_persist_roundtrip() {
        let p = pool();
        let mut t = p.register_thread();
        let g = geoms();
        let vs = VSlab::create(&p, &mut t, 0, 2, 0, g.of(2), true);
        persist_flag(&p, &mut t, 0, vs.class as u16, flag::INDEX_WRITTEN);
        let h = SlabHeader::read(&p, 0).unwrap();
        assert_eq!(h.flag, flag::INDEX_WRITTEN);
        assert_eq!(h.class as usize, vs.class);
    }

    #[test]
    fn index_table_persistence() {
        let p = pool();
        let mut t = p.register_thread();
        let table_off = 128u32;
        let e = IndexEntry { old_idx: 42, allocated: true };
        persist_index_entry(&p, &mut t, 0, table_off, 5, e);
        assert_eq!(read_index_entry(&p, 0, table_off, 5), e);
        // Flip state.
        persist_index_entry(&p, &mut t, 0, table_off, 5, IndexEntry { allocated: false, ..e });
        assert!(!read_index_entry(&p, 0, table_off, 5).allocated);
    }

    #[test]
    fn is_completely_free_respects_morph_residents() {
        let p = pool();
        let mut t = p.register_thread();
        let g = geoms();
        let mut vs = VSlab::create(&p, &mut t, 0, 2, 0, g.of(2), false);
        assert!(vs.is_completely_free());
        vs.morph = Some(MorphState {
            old_class: 5,
            old_data_offset: 4096,
            index_off: 128,
            index: vec![IndexEntry { old_idx: 0, allocated: true }],
            cnt_slab: 1,
            cnt_block: vec![1],
        });
        assert!(!vs.is_completely_free(), "live old blocks keep the slab busy");
        vs.morph.as_mut().unwrap().cnt_slab = 0;
        assert!(vs.is_completely_free());
    }
}
