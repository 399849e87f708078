//! Per-thread write-ahead micro-logs (NVAlloc-LOG consistency path).
//!
//! Each arena owns a persistent WAL region partitioned into fixed-size
//! *micro-logs* of [`MICRO_ENTRIES`] 32 B slots; every thread attached to
//! the arena claims one micro-log and rotates through its slots. An
//! operation appends exactly one entry *before* touching heap metadata; the
//! subsequent persistent write of the user's destination slot acts as the
//! commit record, so no invalidation flush is needed.
//!
//! Because a thread finishes one operation before starting the next, only
//! the **newest entry of each micro-log** can describe an in-flight
//! operation; recovery replays exactly those (sorted by a global sequence
//! number so cross-arena orderings are preserved) and re-applies or undoes
//! them idempotently against the authoritative persistent bitmaps (§4.4).
//! Like the paper's design, an entry left behind by a long-idle thread
//! whose block was later recycled by other threads is validated against
//! the current bitmap state rather than tracked exactly.
//!
//! Consecutive slots are 32 B apart — two per cache line — so back-to-back
//! operations from one thread reflush the same line unless slot placement
//! is interleaved (`IM(WAL)` in Table 2), governed by
//! [`crate::NvConfig::interleave_wal`].

use nvalloc_pmem::{FlushKind, PmOffset, PmThread, PmemPool};

use crate::interleave::Interleave;

/// Bytes per WAL entry.
pub const WAL_ENTRY_BYTES: usize = 32;
/// Entries per cache line.
const PER_LINE: usize = nvalloc_pmem::CACHE_LINE / WAL_ENTRY_BYTES;
/// Entry slots per per-thread micro-log (4 cache lines).
pub const MICRO_ENTRIES: usize = 8;

/// Operation recorded in a WAL entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalOp {
    /// `malloc_to(size) -> addr`, to be attached at `dest`.
    Alloc,
    /// `free_from(dest)` of the block at `addr`.
    Free,
}

impl WalOp {
    fn code(self) -> u8 {
        match self {
            WalOp::Alloc => 1,
            WalOp::Free => 2,
        }
    }

    fn from_code(c: u8) -> Option<WalOp> {
        match c {
            1 => Some(WalOp::Alloc),
            2 => Some(WalOp::Free),
            _ => None,
        }
    }
}

/// A decoded WAL entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalEntry {
    /// Operation type.
    pub op: WalOp,
    /// Block or extent address the operation concerns.
    pub addr: PmOffset,
    /// User destination slot.
    pub dest: PmOffset,
    /// Request size.
    pub size: u32,
    /// Global sequence number (total order across arenas).
    pub seq: u64,
}

impl WalEntry {
    /// True when replaying the entry stays inside memory it may touch:
    /// `addr` and `dest` are 8-aligned, `addr` lies in the heap
    /// `[heap_base, pool_size)`, and the destination word lies in the
    /// pool. Recovery refuses an image holding an invalid entry with
    /// `PmError::Corrupt`; the doctor reports it as `wal_bounds`.
    pub fn is_valid(&self, heap_base: PmOffset, pool_size: usize) -> bool {
        let pool_end = pool_size as u64;
        self.addr.is_multiple_of(8)
            && self.dest.is_multiple_of(8)
            && (heap_base..pool_end).contains(&self.addr)
            && self.dest.checked_add(8).is_some_and(|end| end <= pool_end)
    }
}

/// Raw media image of one 32 B WAL entry slot, word for word. The live
/// code reads and writes these fields through `pool.read_u64`/`write_u64`
/// at the offsets this struct pins down; it exists so the persistent
/// format is stated in one place and its size/alignment/field offsets are
/// locked by `tests/layout_sizes.rs` (the `repr-c-sizes` lint rule keeps
/// that table in sync).
#[repr(C)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalEntryRaw {
    /// Word 0: block or extent address the operation concerns.
    pub addr: u64,
    /// Word 1: user destination slot offset.
    pub dest: u64,
    /// Word 2: `size << 32 | op_code`; an op code of 0 marks the slot
    /// empty, so this word is the slot's validity marker.
    pub op_size: u64,
    /// Word 3: global sequence number (total order across arenas).
    pub seq: u64,
}

/// One arena's WAL region: `micro_count` micro-logs of
/// [`MICRO_ENTRIES`] slots each.
#[derive(Debug, Clone, Copy)]
pub struct WalRegion {
    base: PmOffset,
    micro_count: usize,
}

impl WalRegion {
    /// Bytes needed for `micro_count` micro-logs.
    pub fn region_bytes(micro_count: usize) -> usize {
        micro_count * MICRO_ENTRIES * WAL_ENTRY_BYTES
    }

    /// Initialise (zero) a fresh region.
    pub fn create(pool: &PmemPool, base: PmOffset, micro_count: usize) -> Self {
        assert!(micro_count >= 1);
        // Fresh media is already zero; this restates durable content, so
        // no flush is owed (and the sanitizer is told as much).
        pool.fill_bytes(base, Self::region_bytes(micro_count), 0);
        pool.pmsan_mark_persisted(base, Self::region_bytes(micro_count));
        WalRegion { base, micro_count }
    }

    /// View an existing region (recovery).
    pub fn open(base: PmOffset, micro_count: usize) -> Self {
        WalRegion { base, micro_count }
    }

    /// The micro-log at `idx` (one per thread; `idx` wraps).
    pub fn micro(&self, idx: usize, stripes: usize) -> MicroWal {
        let idx = idx % self.micro_count;
        MicroWal {
            base: self.base + (idx * MICRO_ENTRIES * WAL_ENTRY_BYTES) as u64,
            map: Interleave::new(MICRO_ENTRIES, PER_LINE, stripes),
            next: 0,
        }
    }

    /// Collect the newest entry of every micro-log, sorted by global
    /// sequence number — the candidate set for recovery replay.
    pub fn replay_entries(&self, pool: &PmemPool) -> Vec<WalEntry> {
        let mut out = Vec::new();
        for m in 0..self.micro_count {
            let micro_base = self.base + (m * MICRO_ENTRIES * WAL_ENTRY_BYTES) as u64;
            let mut newest: Option<WalEntry> = None;
            for slot in 0..MICRO_ENTRIES {
                let off = micro_base + (slot * WAL_ENTRY_BYTES) as u64;
                let w2 = pool.read_u64(off + 16);
                let Some(op) = WalOp::from_code((w2 & 0xff) as u8) else { continue };
                let e = WalEntry {
                    op,
                    addr: pool.read_u64(off),
                    dest: pool.read_u64(off + 8),
                    size: (w2 >> 32) as u32,
                    seq: pool.read_u64(off + 24),
                };
                if newest.as_ref().is_none_or(|n| e.seq > n.seq) {
                    newest = Some(e);
                }
            }
            out.extend(newest);
        }
        out.sort_by_key(|e| e.seq);
        out
    }
}

/// One thread's private WAL slots. No locking: only the owning thread
/// appends.
#[derive(Debug)]
pub struct MicroWal {
    base: PmOffset,
    map: Interleave,
    next: usize,
}

impl MicroWal {
    /// Append one entry (overwriting the oldest slot), flush it, fence.
    #[allow(clippy::too_many_arguments)]
    pub fn append(
        &mut self,
        pool: &PmemPool,
        t: &mut PmThread,
        op: WalOp,
        addr: PmOffset,
        dest: PmOffset,
        size: u32,
        seq: u64,
    ) {
        let logical = self.next % MICRO_ENTRIES;
        self.next += 1;
        let off = self.base + (self.map.physical(logical) * WAL_ENTRY_BYTES) as u64;
        pool.write_u64(off, addr);
        pool.write_u64(off + 8, dest);
        pool.write_u64(off + 16, (size as u64) << 32 | (op.code() as u64));
        pool.write_u64(off + 24, seq);
        pool.charge_store(t, off, WAL_ENTRY_BYTES);
        pool.flush(t, off, WAL_ENTRY_BYTES, FlushKind::Wal);
        pool.fence(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvalloc_pmem::{LatencyMode, PmemConfig};
    use std::sync::Arc;

    fn pool() -> Arc<PmemPool> {
        PmemPool::new(PmemConfig::default().pool_size(1 << 20).latency_mode(LatencyMode::Off))
    }

    #[test]
    fn replay_returns_newest_per_micro_log() {
        let p = pool();
        let mut t = p.register_thread();
        let r = WalRegion::create(&p, 0, 4);
        let mut m0 = r.micro(0, 1);
        let mut m1 = r.micro(1, 1);
        m0.append(&p, &mut t, WalOp::Alloc, 0x1000, 0x2000, 64, 1);
        m0.append(&p, &mut t, WalOp::Free, 0x1000, 0x2000, 0, 3);
        m1.append(&p, &mut t, WalOp::Alloc, 0x3000, 0x4000, 128, 2);
        let es = r.replay_entries(&p);
        assert_eq!(es.len(), 2, "one candidate per active micro-log");
        assert_eq!(es[0].seq, 2);
        assert_eq!(es[0].addr, 0x3000);
        assert_eq!(es[1].seq, 3);
        assert_eq!(es[1].op, WalOp::Free);
    }

    #[test]
    fn slot_rotation_survives_many_ops() {
        let p = pool();
        let mut t = p.register_thread();
        let r = WalRegion::create(&p, 0, 1);
        let mut m = r.micro(0, 6);
        for i in 1..=100u64 {
            m.append(&p, &mut t, WalOp::Alloc, i * 64, i, 64, i);
        }
        let es = r.replay_entries(&p);
        assert_eq!(es.len(), 1);
        assert_eq!(es[0].seq, 100, "newest entry wins");
    }

    #[test]
    fn entry_fields_roundtrip() {
        let p = pool();
        let mut t = p.register_thread();
        let r = WalRegion::create(&p, 4096, 2);
        let mut m = r.micro(0, 6);
        m.append(&p, &mut t, WalOp::Free, 0xAB00, 0xCD00, 777, 42);
        let es = r.replay_entries(&p);
        assert_eq!(
            es,
            vec![WalEntry { op: WalOp::Free, addr: 0xAB00, dest: 0xCD00, size: 777, seq: 42 }]
        );
    }

    #[test]
    fn micro_index_wraps() {
        let p = pool();
        let r = WalRegion::create(&p, 0, 2);
        // idx 5 wraps onto micro-log 1.
        let m = r.micro(5, 1);
        let m1 = r.micro(1, 1);
        assert_eq!(m.base, m1.base);
    }

    #[test]
    fn interleaved_slots_avoid_reflushes() {
        let run = |stripes: usize| {
            let p = PmemPool::new(
                PmemConfig::default().pool_size(1 << 20).latency_mode(LatencyMode::Virtual),
            );
            let mut t = p.register_thread();
            let r = WalRegion::create(&p, 0, 1);
            let mut m = r.micro(0, stripes);
            p.stats().reset();
            for i in 1..=64u64 {
                m.append(&p, &mut t, WalOp::Alloc, i * 64, i, 64, i);
                // Simulate the other flushes of an op (bitmap + dest) at
                // far-away lines.
                p.flush(&mut t, (1 << 18) + i * 4096, 8, FlushKind::Meta);
                p.flush(&mut t, (1 << 19) + i * 4096, 8, FlushKind::Meta);
            }
            p.stats().reflushes()
        };
        let flat = run(1);
        let il = run(6);
        assert!(flat > 20, "flat micro-log must reflush (got {flat})");
        assert_eq!(il, 0, "interleaved micro-log must not reflush (got {il})");
    }

    #[test]
    fn entries_survive_crash() {
        let p = PmemPool::new(
            PmemConfig::default()
                .pool_size(1 << 20)
                .latency_mode(LatencyMode::Off)
                .crash_tracking(true),
        );
        let mut t = p.register_thread();
        let r = WalRegion::create(&p, 0, 2);
        p.flush(&mut t, 0, WalRegion::region_bytes(2), FlushKind::Wal);
        let mut m = r.micro(0, 6);
        m.append(&p, &mut t, WalOp::Alloc, 0x5000, 0x6000, 100, 9);
        let reboot = PmemPool::from_crash_image(p.crash());
        let r2 = WalRegion::open(0, 2);
        let es = r2.replay_entries(&reboot);
        assert_eq!(es.len(), 1);
        assert_eq!(es[0].addr, 0x5000);
        assert_eq!(es[0].seq, 9);
    }
}
