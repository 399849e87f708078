//! The persistent bookkeeping log (§5.3): log-structured storage for
//! extent metadata.
//!
//! Instead of updating extent headers in place (small *random* PM writes,
//! §3.3), every virtual-extent-header change appends one 8-byte entry to
//! this log. The log region is divided into 1 KB chunks; each chunk has a
//! 64 B header (id, epoch, next pointer) and 120 entry slots. The log
//! header holds *two* chain-head pointers and an `alt` bit — slow GC builds
//! a fresh chain under the inactive pointer and switches atomically by
//! flipping `alt`.
//!
//! Every chunk has a volatile twin (*vchunk*) carrying a validity bitmap;
//! vchunks live in an ordered map (the paper uses a red-black tree — Rust's
//! `BTreeMap` is the equivalent balanced ordered map). Freeing an extent
//! appends a *tombstone* entry that names the victim entry by
//! `(chunk, slot, epoch)` and clears the victim's vchunk bit.
//!
//! **Fast GC** reaps chunks whose bitmaps are empty, without touching PM;
//! the persistent unlink + zero + epoch bump happens lazily when the chunk
//! is reused. **Slow GC** copies all live entries to a new chain and flips
//! `alt`; it runs when the log grows past `Usage_pmem` (§6.6).
//!
//! Entry placement inside a chunk is interleaved across cache lines
//! exactly like slab bitmaps (`IM(bookkeeping log)`, Table 2), because
//! consecutive 8-byte appends would otherwise reflush the line.

use std::collections::{BTreeMap, HashMap};

use nvalloc_pmem::{FlushKind, PmError, PmOffset, PmResult, PmThread, PmemPool};

use crate::interleave::Interleave;

/// Bytes per chunk.
pub const CHUNK_BYTES: usize = 1024;
/// Bytes of each chunk's header.
pub const CHUNK_HEADER_BYTES: usize = 64;
/// Entry slots per chunk.
pub const ENTRIES_PER_CHUNK: usize = (CHUNK_BYTES - CHUNK_HEADER_BYTES) / 8; // 120
/// Bytes of the log-region header.
pub const LOG_HEADER_BYTES: usize = 64;

/// Raw media image of the 64 B log-region header. Word 0 holds the `alt`
/// bit slow GC flips atomically to switch chains; exactly one of the two
/// head words is active at a time. Sizes and offsets are pinned by
/// `tests/layout_sizes.rs` (the `repr-c-sizes` lint rule keeps that table
/// in sync with every `#[repr(C)]` layout here).
#[repr(C)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogHeaderRaw {
    /// Word 0: active-chain selector; only bit 0 is meaningful.
    pub alt: u64,
    /// Word 1: chain head when `alt == 0`, encoded `id + 1` (0 = empty).
    pub head_a: u64,
    /// Word 2: chain head when `alt == 1`, encoded `id + 1` (0 = empty).
    pub head_b: u64,
    /// Word 3: carve high-water mark — chunks `0..carved` have been
    /// formatted at least once, so recovery scans exactly this span.
    pub carved: u64,
    /// Words 4–7: reserved, zero on fresh media.
    pub reserved: [u64; 4],
}

/// Raw media image of one chunk's 64 B header.
#[repr(C)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkHeaderRaw {
    /// Word 0: `epoch << 32 | id`; the epoch bumps on every reuse so
    /// stale [`EntryRef`]s can be detected.
    pub id_epoch: u64,
    /// Word 1: next chunk in the chain, encoded `id + 1` (0 = end).
    pub next: u64,
    /// Words 2–7: reserved, zero on fresh media.
    pub reserved: [u64; 6],
}

const TYPE_BITS: u64 = 0b111;
const TYPE_EXTENT: u64 = 1;
const TYPE_SLAB: u64 = 2;
const TYPE_TOMBSTONE: u64 = 3;

/// Payload of a live (normal) bookkeeping entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BookEntry {
    /// Extent/slab base offset (4 KB aligned — §5.3 stores `addr >> 12`).
    pub addr: PmOffset,
    /// Extent size in bytes.
    pub size: u32,
    /// True if the extent is a slab (recovery rebuilds a vslab for it).
    pub is_slab: bool,
}

impl BookEntry {
    fn encode(&self) -> u64 {
        debug_assert_eq!(self.addr % 4096, 0, "booklog addresses are 4 KB aligned");
        debug_assert!((self.size as u64 >> 12) < 1 << 26, "size field overflows 26 bits");
        let ty = if self.is_slab { TYPE_SLAB } else { TYPE_EXTENT };
        // [type:3 | addr>>12 :35 | size>>12 :26] — sizes are page-multiple.
        debug_assert_eq!(self.size % 4096, 0, "extent sizes are page-multiple");
        ty | (self.addr >> 12) << 3 | (self.size as u64 >> 12) << 38
    }

    fn decode(word: u64) -> Option<BookEntry> {
        match word & TYPE_BITS {
            TYPE_EXTENT | TYPE_SLAB => Some(BookEntry {
                addr: (word >> 3 & ((1 << 35) - 1)) << 12,
                size: ((word >> 38) << 12) as u32,
                is_slab: word & TYPE_BITS == TYPE_SLAB,
            }),
            _ => None,
        }
    }
}

/// Identity of one physical entry slot; owners keep this to delete or
/// relocate their entry later.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EntryRef {
    chunk: u32,
    slot: u8,
    epoch: u32,
}

#[derive(Debug)]
struct VChunk {
    bitmap: [u64; 2],
    live: u16,
    /// Volatile copy of the persistent header fields.
    epoch: u32,
    next: Option<u32>,
    prev: Option<u32>,
}

impl VChunk {
    fn empty(epoch: u32) -> Self {
        VChunk { bitmap: [0; 2], live: 0, epoch, next: None, prev: None }
    }

    fn set(&mut self, slot: u8) {
        self.bitmap[slot as usize / 64] |= 1 << (slot % 64);
        self.live += 1;
    }

    fn clear(&mut self, slot: u8) {
        let w = &mut self.bitmap[slot as usize / 64];
        debug_assert!(*w >> (slot % 64) & 1 == 1);
        *w &= !(1 << (slot % 64));
        self.live -= 1;
    }

    fn is_set(&self, slot: u8) -> bool {
        self.bitmap[slot as usize / 64] >> (slot % 64) & 1 == 1
    }
}

/// Statistics exposed for the GC-overhead experiment (Fig. 17).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BookLogStats {
    /// Number of fast-GC passes.
    pub fast_gc_runs: u64,
    /// Chunks reaped by fast GC.
    pub fast_gc_chunks: u64,
    /// Number of slow-GC passes.
    pub slow_gc_runs: u64,
    /// Live entries copied by slow GC.
    pub slow_gc_copied: u64,
    /// Entries appended (normal, tombstone, and slow-GC copies alike).
    pub appends: u64,
    /// Tombstone entries appended by [`BookLog::delete`].
    pub tombstones: u64,
    /// Dual-chain head flips performed by slow GC.
    pub alt_flips: u64,
}

/// The persistent bookkeeping log. All methods require external
/// synchronisation (the large allocator holds it under its lock).
#[derive(Debug)]
pub struct BookLog {
    base: PmOffset,
    region_bytes: usize,
    map: Interleave,
    /// Volatile chunk index (paper: red-black tree of vchunks).
    vchunks: BTreeMap<u32, VChunk>,
    free: Vec<u32>,
    head: Option<u32>,
    tail: Option<u32>,
    /// Next slot to fill in the tail chunk.
    tail_fill: u8,
    /// High-water mark of carved chunks (persisted in the log header).
    carved: u32,
    alt: u64,
    appends_since_fast_gc: u32,
    gc_enabled: bool,
    in_gc: bool,
    slow_gc_threshold_bytes: usize,
    stats: BookLogStats,
}

impl BookLog {
    /// Max number of chunks a region can hold.
    fn max_chunks(region_bytes: usize) -> u32 {
        ((region_bytes - LOG_HEADER_BYTES) / CHUNK_BYTES) as u32
    }

    fn chunk_off(&self, id: u32) -> PmOffset {
        self.base + LOG_HEADER_BYTES as u64 + id as u64 * CHUNK_BYTES as u64
    }

    fn slot_off(&self, id: u32, slot: u8) -> PmOffset {
        self.chunk_off(id) + CHUNK_HEADER_BYTES as u64 + slot as u64 * 8
    }

    /// Initialise a fresh log in `[base, base + region_bytes)`.
    pub fn create(
        pool: &PmemPool,
        base: PmOffset,
        region_bytes: usize,
        stripes: usize,
        gc_enabled: bool,
        slow_gc_threshold_bytes: usize,
    ) -> Self {
        assert!(region_bytes >= LOG_HEADER_BYTES + 2 * CHUNK_BYTES, "booklog region too small");
        // Fresh media is already zero; restating it owes no flush.
        pool.fill_bytes(base, LOG_HEADER_BYTES, 0);
        pool.pmsan_mark_persisted(base, LOG_HEADER_BYTES);
        BookLog {
            base,
            region_bytes,
            map: Interleave::new(ENTRIES_PER_CHUNK, 8, stripes),
            vchunks: BTreeMap::new(),
            free: Vec::new(),
            head: None,
            tail: None,
            tail_fill: 0,
            carved: 0,
            alt: 0,
            appends_since_fast_gc: 0,
            gc_enabled,
            in_gc: false,
            slow_gc_threshold_bytes,
            stats: BookLogStats::default(),
        }
    }

    /// GC statistics.
    pub fn stats(&self) -> BookLogStats {
        self.stats
    }

    /// Bytes of log chunks currently in the active chain.
    pub fn active_bytes(&self) -> usize {
        self.vchunks.len() * CHUNK_BYTES
    }

    /// Number of live entries.
    pub fn live_entries(&self) -> usize {
        self.vchunks.values().map(|v| v.live as usize).sum()
    }

    fn persist_header_word(&self, pool: &PmemPool, t: &mut PmThread, word_idx: u64, value: u64) {
        pool.persist_u64(t, self.base + word_idx * 8, value, FlushKind::BookLog);
    }

    /// Acquire a chunk: from the free list (unlink + zero + epoch bump) or
    /// by carving a fresh one from the region.
    fn acquire_chunk(&mut self, pool: &PmemPool, t: &mut PmThread) -> PmResult<(u32, u32)> {
        if let Some(id) = self.free.pop() {
            self.unlink_durable(pool, t, id);
            let off = self.chunk_off(id);
            let epoch = (pool.read_u64(off) >> 32) as u32 + 1;
            // Zero the entry area persistently so stale entries can never be
            // scanned after this chunk re-enters a chain.
            pool.fill_bytes(off + CHUNK_HEADER_BYTES as u64, CHUNK_BYTES - CHUNK_HEADER_BYTES, 0);
            pool.charge_store(t, off + CHUNK_HEADER_BYTES as u64, CHUNK_BYTES - CHUNK_HEADER_BYTES);
            pool.flush(
                t,
                off + CHUNK_HEADER_BYTES as u64,
                CHUNK_BYTES - CHUNK_HEADER_BYTES,
                FlushKind::BookLog,
            );
            // Header: id | epoch, next = none.
            pool.write_u64(off, (id as u64) | (epoch as u64) << 32);
            pool.write_u64(off + 8, 0);
            pool.charge_store(t, off, 16);
            pool.flush(t, off, 16, FlushKind::BookLog);
            pool.fence(t);
            return Ok((id, epoch));
        }
        if self.carved >= Self::max_chunks(self.region_bytes) {
            return Err(PmError::OutOfMemory { requested: CHUNK_BYTES });
        }
        let id = self.carved;
        self.carved += 1;
        let off = self.chunk_off(id);
        pool.fill_bytes(off, CHUNK_BYTES, 0);
        pool.write_u64(off, id as u64 | 1 << 32); // epoch 1
        pool.charge_store(t, off, CHUNK_BYTES);
        pool.flush(t, off, CHUNK_BYTES, FlushKind::BookLog);
        // Persist the carve high-water mark (header word 3) so recovery can
        // find orphaned chunks.
        self.persist_header_word(pool, t, 3, self.carved as u64);
        Ok((id, 1))
    }

    /// Splice chunk `id` out of the chain recovery would walk, before it
    /// is zeroed for reuse. Fast GC unlinks reaped chunks from the
    /// volatile chain only, so a persisted predecessor (or head word)
    /// may still point at `id`; zeroing it would end that chain there
    /// and lose every chunk after it. The chain is the one the alt bit
    /// *as persisted* selects: while slow GC copies, recovery still
    /// reads the old chain, whatever `self.alt` says. Reads only — no
    /// PM traffic — unless `id` is found.
    fn unlink_durable(&self, pool: &PmemPool, t: &mut PmThread, id: u32) {
        let mut link = self.base + if pool.read_u64(self.base) & 1 == 0 { 8 } else { 16 };
        // At most `carved` hops, so a damaged chain cannot loop forever.
        for _ in 0..self.carved {
            let word = pool.read_u64(link);
            if word == 0 || word > self.carved as u64 {
                return;
            }
            let next_link = self.chunk_off((word - 1) as u32) + 8;
            if word - 1 == id as u64 {
                pool.persist_u64(t, link, pool.read_u64(next_link), FlushKind::BookLog);
                return;
            }
            link = next_link;
        }
    }

    fn link_at_tail(&mut self, pool: &PmemPool, t: &mut PmThread, id: u32, epoch: u32) {
        match self.tail {
            Some(tail_id) => {
                // tail.next = id (+1 encoding; 0 = none).
                pool.persist_u64(t, self.chunk_off(tail_id) + 8, id as u64 + 1, FlushKind::BookLog);
                if let Some(tv) = self.vchunks.get_mut(&tail_id) {
                    tv.next = Some(id);
                }
            }
            None => {
                // Empty chain: set the active head pointer.
                let word = if self.alt == 0 { 1 } else { 2 };
                self.persist_header_word(pool, t, word, id as u64 + 1);
                self.head = Some(id);
            }
        }
        let mut v = VChunk::empty(epoch);
        v.prev = self.tail;
        self.vchunks.insert(id, v);
        self.tail = Some(id);
        self.tail_fill = 0;
    }

    /// Append a normal entry; returns its [`EntryRef`].
    ///
    /// # Errors
    /// Propagates [`PmError::OutOfMemory`] if the region is exhausted.
    pub fn append(
        &mut self,
        pool: &PmemPool,
        t: &mut PmThread,
        entry: BookEntry,
    ) -> PmResult<EntryRef> {
        let r = self.append_word(pool, t, entry.encode())?;
        t.trace(crate::trace::EventKind::BooklogAppend.code(), entry.addr, entry.size as u64);
        Ok(r)
    }

    fn append_word(&mut self, pool: &PmemPool, t: &mut PmThread, word: u64) -> PmResult<EntryRef> {
        if self.tail.is_none() || self.tail_fill as usize >= ENTRIES_PER_CHUNK {
            let fast_chunks0 = self.stats.fast_gc_chunks;
            let fast_runs0 = self.stats.fast_gc_runs;
            self.maybe_gc();
            if self.stats.fast_gc_runs > fast_runs0 {
                t.trace(
                    crate::trace::EventKind::BooklogGc.code(),
                    0,
                    self.stats.fast_gc_chunks - fast_chunks0,
                );
            }
            let (id, epoch) = self.acquire_chunk(pool, t)?;
            self.link_at_tail(pool, t, id, epoch);
        }
        let chunk = self.tail.expect("tail chunk exists after acquire");
        let logical = self.tail_fill;
        self.tail_fill += 1;
        let slot = self.map.physical(logical as usize) as u8;
        let off = self.slot_off(chunk, slot);
        pool.write_u64(off, word);
        pool.charge_store(t, off, 8);
        pool.flush(t, off, 8, FlushKind::BookLog);
        pool.fence(t);
        let vc = self.vchunks.get_mut(&chunk).expect("tail vchunk");
        vc.set(slot);
        let epoch = vc.epoch;
        self.appends_since_fast_gc += 1;
        self.stats.appends += 1;
        Ok(EntryRef { chunk, slot, epoch })
    }

    /// Delete a normal entry by appending a tombstone and clearing its
    /// vchunk bit.
    ///
    /// # Errors
    /// Propagates [`PmError::OutOfMemory`] from the tombstone append.
    pub fn delete(&mut self, pool: &PmemPool, t: &mut PmThread, er: EntryRef) -> PmResult<()> {
        let word = TYPE_TOMBSTONE
            | (er.chunk as u64) << 3
            | (er.slot as u64) << 25
            | (er.epoch as u64) << 32;
        self.append_word(pool, t, word)?;
        self.stats.tombstones += 1;
        if let Some(vc) = self.vchunks.get_mut(&er.chunk) {
            if vc.epoch == er.epoch && vc.is_set(er.slot) {
                vc.clear(er.slot);
            }
        }
        Ok(())
    }

    fn decode_tombstone(word: u64) -> EntryRef {
        EntryRef {
            chunk: (word >> 3 & ((1 << 22) - 1)) as u32,
            slot: (word >> 25 & 0x7f) as u8,
            epoch: (word >> 32) as u32,
        }
    }

    /// Run fast GC if due. Slow GC is *not* auto-triggered here because its
    /// relocation map must reach the entry owners; callers poll
    /// [`BookLog::needs_slow_gc`] after each operation and invoke
    /// [`BookLog::slow_gc`] themselves.
    fn maybe_gc(&mut self) {
        if !self.gc_enabled || self.in_gc {
            return;
        }
        if self.appends_since_fast_gc as usize >= ENTRIES_PER_CHUNK {
            self.fast_gc();
        }
    }

    /// True when the active chain has outgrown the `Usage_pmem` threshold
    /// and the owner should run [`BookLog::slow_gc`].
    pub fn needs_slow_gc(&self) -> bool {
        self.gc_enabled && self.active_bytes() > self.slow_gc_threshold_bytes
    }

    /// Fast GC (§5.3): move empty chunks to the free list. Touches no PM.
    pub fn fast_gc(&mut self) {
        self.appends_since_fast_gc = 0;
        self.stats.fast_gc_runs += 1;
        let empties: Vec<u32> = self
            .vchunks
            .iter()
            .filter(|(id, v)| v.live == 0 && Some(**id) != self.tail)
            .map(|(id, _)| *id)
            .collect();
        for id in empties {
            let v = self.vchunks.remove(&id).expect("empty vchunk");
            // Splice volatile neighbours; the persistent unlink happens at
            // reuse (acquire) or at the next slow GC, whichever first.
            if let Some(p) = v.prev {
                if let Some(pv) = self.vchunks.get_mut(&p) {
                    pv.next = v.next;
                }
            } else {
                self.head = v.next;
            }
            if let Some(n) = v.next {
                if let Some(nv) = self.vchunks.get_mut(&n) {
                    nv.prev = v.prev;
                }
            }
            self.free.push(id);
            self.stats.fast_gc_chunks += 1;
        }
    }

    /// Slow GC (§5.3): copy live entries to a fresh chain under the
    /// inactive head pointer, flip `alt`, recycle every old chunk.
    ///
    /// Returns the relocation map so owners (VEHs) can update their
    /// [`EntryRef`]s.
    ///
    /// # Errors
    /// Propagates [`PmError::OutOfMemory`] if no fresh chunks are available.
    pub fn slow_gc(
        &mut self,
        pool: &PmemPool,
        t: &mut PmThread,
    ) -> PmResult<HashMap<EntryRef, EntryRef>> {
        self.stats.slow_gc_runs += 1;
        self.in_gc = true;
        // Snapshot live *normal* entries in chain order; tombstones are
        // dropped in the process (§5.3).
        let mut live: Vec<(EntryRef, u64)> = Vec::with_capacity(self.live_entries());
        let mut cur = self.head;
        while let Some(id) = cur {
            let v = &self.vchunks[&id];
            for slot in 0..ENTRIES_PER_CHUNK as u8 {
                if v.is_set(slot) {
                    let word = pool.read_u64(self.slot_off(id, slot));
                    if matches!(word & TYPE_BITS, TYPE_EXTENT | TYPE_SLAB) {
                        live.push((EntryRef { chunk: id, slot, epoch: v.epoch }, word));
                    }
                }
            }
            cur = v.next;
        }

        // Build the new chain in a scratch BookLog state.
        let old_vchunks = std::mem::take(&mut self.vchunks);
        let old_head = self.head.take();
        self.tail = None;
        self.tail_fill = 0;
        self.alt ^= 1; // appends now target the other head pointer
        self.stats.alt_flips += 1;
        let mut moves = HashMap::with_capacity(live.len());
        let mut append_err = None;
        for (old_ref, word) in &live {
            match self.append_word(pool, t, *word) {
                Ok(new_ref) => {
                    moves.insert(*old_ref, new_ref);
                }
                Err(e) => {
                    append_err = Some(e);
                    break;
                }
            }
            self.stats.slow_gc_copied += 1;
        }
        if let Some(e) = append_err {
            self.in_gc = false;
            return Err(e);
        }
        // Atomic switch: persist the alt bit (header word 0). Written out
        // long-hand (store / charge / flush / fence) so the mutation
        // tests can delete exactly one flush or fence from the switch.
        pool.write_u64(self.base, self.alt);
        pool.charge_store(t, self.base, 8);
        if !faults::skip_flip_flush() {
            pool.flush(t, self.base, 8, FlushKind::BookLog);
        }
        if !faults::skip_flip_fence() {
            pool.fence(t);
        }
        t.trace(crate::trace::EventKind::BooklogGc.code(), 1, moves.len() as u64);
        // Recycle the old chain.
        let mut cur = old_head;
        let mut seen = 0u32;
        while let Some(id) = cur {
            cur = old_vchunks[&id].next;
            self.free.push(id);
            seen += 1;
            debug_assert!(seen <= self.carved);
        }
        self.in_gc = false;
        Ok(moves)
    }

    /// Recover the log from a (possibly crashed) pool image.
    ///
    /// Walks the active chain, applies tombstones (matching epochs), and
    /// returns the surviving entries together with a rebuilt `BookLog`.
    /// Mirrors §4.4: the caller should follow up with a slow GC to compact
    /// tombstoned state (`recover` already rebuilds vchunk bitmaps, so the
    /// follow-up is optional and cheap).
    pub fn recover(
        pool: &PmemPool,
        base: PmOffset,
        region_bytes: usize,
        stripes: usize,
        gc_enabled: bool,
        slow_gc_threshold_bytes: usize,
    ) -> (Self, Vec<(EntryRef, BookEntry)>) {
        let alt = pool.read_u64(base) & 1;
        let head_word = pool.read_u64(base + if alt == 0 { 8 } else { 16 });
        let carved = pool.read_u64(base + 24) as u32;
        let head = (head_word != 0).then(|| (head_word - 1) as u32);

        let mut log = BookLog {
            base,
            region_bytes,
            map: Interleave::new(ENTRIES_PER_CHUNK, 8, stripes),
            vchunks: BTreeMap::new(),
            free: Vec::new(),
            head,
            tail: None,
            tail_fill: 0,
            carved,
            alt,
            appends_since_fast_gc: 0,
            gc_enabled,
            in_gc: false,
            slow_gc_threshold_bytes,
            stats: BookLogStats::default(),
        };

        // Pass 1: walk the chain, reading raw entries.
        let mut chain: Vec<u32> = Vec::new();
        let mut cur = head;
        let mut raw: Vec<(u32, u8, u64)> = Vec::new();
        let mut tombs: Vec<EntryRef> = Vec::new();
        let mut prev: Option<u32> = None;
        while let Some(id) = cur {
            if id >= carved || chain.contains(&id) {
                break; // corrupt or cyclic: stop at the damage
            }
            chain.push(id);
            let off = log.chunk_off(id);
            let hdr = pool.read_u64(off);
            let epoch = (hdr >> 32) as u32;
            let mut v = VChunk::empty(epoch);
            v.prev = prev;
            for slot in 0..ENTRIES_PER_CHUNK as u8 {
                let word = pool.read_u64(log.slot_off(id, slot));
                match word & TYPE_BITS {
                    TYPE_EXTENT | TYPE_SLAB => raw.push((id, slot, word)),
                    TYPE_TOMBSTONE => {
                        tombs.push(Self::decode_tombstone(word));
                        raw.push((id, slot, word));
                    }
                    _ => {}
                }
            }
            let next_word = pool.read_u64(off + 8);
            let next = (next_word != 0).then(|| (next_word - 1) as u32);
            v.next = next;
            if let Some(p) = prev {
                if let Some(pv) = log.vchunks.get_mut(&p) {
                    pv.next = Some(id);
                }
            }
            log.vchunks.insert(id, v);
            prev = Some(id);
            cur = next;
        }
        log.tail = chain.last().copied();

        // Pass 2: cancel tombstoned entries (epoch-checked).
        use std::collections::HashSet;
        let mut dead: HashSet<(u32, u8)> = HashSet::new();
        for tr in &tombs {
            if let Some(v) = log.vchunks.get(&tr.chunk) {
                if v.epoch == tr.epoch {
                    dead.insert((tr.chunk, tr.slot));
                }
            }
        }

        // Pass 3: survivors get their vchunk bits; tombstones stay live
        // (until slow GC) exactly as at runtime.
        let mut out = Vec::new();
        for (chunk, slot, word) in raw {
            let is_tomb = word & TYPE_BITS == TYPE_TOMBSTONE;
            if !is_tomb && dead.contains(&(chunk, slot)) {
                continue;
            }
            let epoch = log.vchunks[&chunk].epoch;
            log.vchunks.get_mut(&chunk).expect("chunk in map").set(slot);
            if !is_tomb {
                let e = BookEntry::decode(word).expect("typed word decodes");
                out.push((EntryRef { chunk, slot, epoch }, e));
            }
        }

        // Tail fill: resume after the last used logical slot of the tail.
        if let Some(tail) = log.tail {
            let v = &log.vchunks[&tail];
            let mut fill = 0u8;
            for logical in 0..ENTRIES_PER_CHUNK {
                let slot = log.map.physical(logical) as u8;
                let word = pool.read_u64(log.slot_off(tail, slot));
                if word & TYPE_BITS != 0 || v.is_set(slot) {
                    fill = logical as u8 + 1;
                }
            }
            log.tail_fill = fill;
        }

        // Orphaned chunks (carved but unreachable) return to the free list.
        for id in 0..carved {
            if !log.vchunks.contains_key(&id) {
                log.free.push(id);
            }
        }
        (log, out)
    }
}

/// Test-only fault injection for the slow-GC atomic switch: mutation
/// tests delete exactly one flush or fence from the alt-bit flip and
/// assert pmsan flags that site. Compiled out of release builds.
#[cfg(test)]
pub(crate) mod faults {
    use std::cell::Cell;

    thread_local! {
        pub static SKIP_FLIP_FLUSH: Cell<bool> = const { Cell::new(false) };
        pub static SKIP_FLIP_FENCE: Cell<bool> = const { Cell::new(false) };
    }

    pub(crate) fn skip_flip_flush() -> bool {
        SKIP_FLIP_FLUSH.with(|f| f.get())
    }

    pub(crate) fn skip_flip_fence() -> bool {
        SKIP_FLIP_FENCE.with(|f| f.get())
    }
}

#[cfg(not(test))]
mod faults {
    pub(crate) fn skip_flip_flush() -> bool {
        false
    }

    pub(crate) fn skip_flip_fence() -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvalloc_pmem::{LatencyMode, PmemConfig};
    use std::sync::Arc;

    fn pool() -> Arc<PmemPool> {
        PmemPool::new(PmemConfig::default().pool_size(8 << 20).latency_mode(LatencyMode::Off))
    }

    fn entry(addr: u64, size: u32) -> BookEntry {
        BookEntry { addr, size, is_slab: false }
    }

    #[test]
    fn entry_codec_roundtrip() {
        for (a, s, slab) in
            [(0u64, 4096u32, false), (4096, 65536, true), (123 << 12, 2 << 20, false)]
        {
            let e = BookEntry { addr: a, size: s, is_slab: slab };
            assert_eq!(BookEntry::decode(e.encode()), Some(e));
        }
        assert_eq!(BookEntry::decode(0), None);
    }

    #[test]
    fn append_and_delete_track_liveness() {
        let p = pool();
        let mut t = p.register_thread();
        let mut log = BookLog::create(&p, 0, 1 << 20, 6, true, 1 << 19);
        let r1 = log.append(&p, &mut t, entry(0x10000, 4096)).unwrap();
        let _r2 = log.append(&p, &mut t, entry(0x20000, 8192)).unwrap();
        assert_eq!(log.live_entries(), 2);
        log.delete(&p, &mut t, r1).unwrap();
        // The tombstone itself is live; the victim is not: 1 normal + 1 tomb.
        assert_eq!(log.live_entries(), 2);
    }

    #[test]
    fn chunks_chain_as_they_fill() {
        let p = pool();
        let mut t = p.register_thread();
        let mut log = BookLog::create(&p, 0, 1 << 20, 1, false, usize::MAX);
        for i in 0..(ENTRIES_PER_CHUNK * 3) as u64 {
            log.append(&p, &mut t, entry(i << 12, 4096)).unwrap();
        }
        assert_eq!(log.vchunks.len(), 3);
        assert_eq!(log.live_entries(), ENTRIES_PER_CHUNK * 3);
    }

    #[test]
    fn fast_gc_reaps_empty_chunks_without_pm_traffic() {
        let p = pool();
        let mut t = p.register_thread();
        let mut log = BookLog::create(&p, 0, 1 << 20, 1, false, usize::MAX);
        let mut refs = Vec::new();
        for i in 0..(ENTRIES_PER_CHUNK * 2) as u64 {
            refs.push(log.append(&p, &mut t, entry(i << 12, 4096)).unwrap());
        }
        // Kill everything in the first chunk.
        for r in refs.iter().take(ENTRIES_PER_CHUNK) {
            log.delete(&p, &mut t, *r).unwrap();
        }
        let flushes_before = p.stats().flushes();
        log.fast_gc();
        assert_eq!(p.stats().flushes(), flushes_before, "fast GC must not flush");
        assert_eq!(log.stats().fast_gc_chunks, 1);
        assert_eq!(log.free.len(), 1);
    }

    #[test]
    fn reused_chunk_is_zeroed_and_epoch_bumped() {
        let p = pool();
        let mut t = p.register_thread();
        let mut log = BookLog::create(&p, 0, 1 << 20, 1, false, usize::MAX);
        let mut refs = Vec::new();
        for i in 0..(ENTRIES_PER_CHUNK * 2) as u64 {
            refs.push(log.append(&p, &mut t, entry(i << 12, 4096)).unwrap());
        }
        for r in refs.iter().take(ENTRIES_PER_CHUNK) {
            log.delete(&p, &mut t, *r).unwrap();
        }
        log.fast_gc();
        // Fill until the freed chunk is reused.
        let mut new_ref = None;
        for i in 0..(ENTRIES_PER_CHUNK * 2) as u64 {
            let r = log.append(&p, &mut t, entry((1000 + i) << 12, 4096)).unwrap();
            if r.chunk == refs[0].chunk {
                new_ref = Some(r);
                break;
            }
        }
        let nr = new_ref.expect("freed chunk should be reused");
        assert!(nr.epoch > refs[0].epoch, "epoch must bump on reuse");
    }

    /// Fill three chunks, delete every entry of chunk `victim`, reap it
    /// with fast GC, append until the reaped chunk is reused, then crash.
    /// Returns the live addresses and the addresses recovery found.
    fn reuse_reaped_chunk_then_crash(victim: usize) -> (Vec<u64>, Vec<u64>) {
        let p = PmemPool::new(
            PmemConfig::default()
                .pool_size(8 << 20)
                .latency_mode(LatencyMode::Off)
                .crash_tracking(true),
        );
        let mut t = p.register_thread();
        let mut log = BookLog::create(&p, 0, 1 << 20, 6, false, usize::MAX);
        let mut live = Vec::new();
        let mut refs = Vec::new();
        for i in 0..(ENTRIES_PER_CHUNK * 3) as u64 {
            refs.push(log.append(&p, &mut t, entry(i << 12, 4096)).unwrap());
            live.push(i << 12);
        }
        let doomed = victim * ENTRIES_PER_CHUNK..(victim + 1) * ENTRIES_PER_CHUNK;
        for r in &refs[doomed.clone()] {
            log.delete(&p, &mut t, *r).unwrap();
        }
        live.drain(doomed);
        log.fast_gc();
        assert_eq!(log.free, vec![refs[victim * ENTRIES_PER_CHUNK].chunk]);
        for i in 1000u64.. {
            let r = log.append(&p, &mut t, entry(i << 12, 4096)).unwrap();
            live.push(i << 12);
            if r.chunk == refs[victim * ENTRIES_PER_CHUNK].chunk {
                break;
            }
        }
        let reboot = PmemPool::from_crash_image(p.crash());
        let (_, entries) = BookLog::recover(&reboot, 0, 1 << 20, 6, false, usize::MAX);
        let mut got: Vec<u64> = entries.iter().map(|(_, e)| e.addr).collect();
        got.sort_unstable();
        live.sort_unstable();
        (live, got)
    }

    #[test]
    fn reusing_a_reaped_chunk_keeps_the_chain_behind_it() {
        // Chunk 1 sits mid-chain; chunk 0 is the one the head word names.
        for victim in [1, 0] {
            let (live, got) = reuse_reaped_chunk_then_crash(victim);
            assert_eq!(live.len(), 2 * ENTRIES_PER_CHUNK + 1);
            assert_eq!(got, live, "reaped chunk {victim}: recovery must find every live entry");
        }
    }

    #[test]
    fn slow_gc_compacts_and_relocates() {
        let p = pool();
        let mut t = p.register_thread();
        let mut log = BookLog::create(&p, 0, 1 << 20, 6, false, usize::MAX);
        let mut refs = Vec::new();
        for i in 0..(ENTRIES_PER_CHUNK * 2) as u64 {
            refs.push((log.append(&p, &mut t, entry(i << 12, 4096)).unwrap(), i));
        }
        // Delete every other entry.
        for (r, i) in &refs {
            if i % 2 == 0 {
                log.delete(&p, &mut t, *r).unwrap();
            }
        }
        let live_before = refs.len() / 2;
        let moves = log.slow_gc(&p, &mut t).unwrap();
        assert_eq!(moves.len(), live_before);
        assert_eq!(log.live_entries(), live_before, "tombstones dropped");
        // Every surviving old ref has a new location with readable content.
        for (r, i) in &refs {
            if i % 2 == 1 {
                let nr = moves[r];
                let word = pool_read_entry(&p, &log, nr);
                assert_eq!(BookEntry::decode(word).unwrap().addr, i << 12);
            }
        }
    }

    fn pool_read_entry(p: &PmemPool, log: &BookLog, r: EntryRef) -> u64 {
        p.read_u64(log.slot_off(r.chunk, r.slot))
    }

    #[test]
    fn slow_gc_triggers_on_threshold() {
        let p = pool();
        let mut t = p.register_thread();
        // Threshold = 2 chunks; caller polls needs_slow_gc like the large
        // allocator does.
        let mut log = BookLog::create(&p, 0, 1 << 20, 1, true, 2 * CHUNK_BYTES);
        for i in 0..(ENTRIES_PER_CHUNK * 4) as u64 {
            let r = log.append(&p, &mut t, entry(i << 12, 4096)).unwrap();
            // Immediately delete so slow GC can shrink the chain.
            log.delete(&p, &mut t, r).unwrap();
            if log.needs_slow_gc() {
                log.slow_gc(&p, &mut t).unwrap();
            }
        }
        assert!(log.stats().slow_gc_runs > 0, "slow GC should have run");
        assert!(log.active_bytes() <= 3 * CHUNK_BYTES);
        // Only tombstones appended since the last slow GC may remain live.
        let moves = log.slow_gc(&p, &mut t).unwrap();
        assert!(moves.is_empty(), "no normal entry should survive");
        assert_eq!(log.live_entries(), 0);
    }

    #[test]
    fn recover_after_clean_image() {
        let p = PmemPool::new(
            PmemConfig::default()
                .pool_size(8 << 20)
                .latency_mode(LatencyMode::Off)
                .crash_tracking(true),
        );
        let mut t = p.register_thread();
        let mut log = BookLog::create(&p, 0, 1 << 20, 6, false, usize::MAX);
        let mut kept = Vec::new();
        for i in 0..300u64 {
            let r = log.append(&p, &mut t, entry(i << 12, 4096)).unwrap();
            if i % 3 == 0 {
                log.delete(&p, &mut t, r).unwrap();
            } else {
                kept.push(i << 12);
            }
        }
        let reboot = PmemPool::from_crash_image(p.clean_shutdown_image());
        let (log2, entries) = BookLog::recover(&reboot, 0, 1 << 20, 6, false, usize::MAX);
        let mut addrs: Vec<u64> = entries.iter().map(|(_, e)| e.addr).collect();
        addrs.sort_unstable();
        kept.sort_unstable();
        assert_eq!(addrs, kept, "recovery must keep exactly the undeleted entries");
        assert!(log2.tail.is_some());
    }

    #[test]
    fn recover_after_crash_with_unflushed_suffix() {
        // Entries are flushed one by one; a crash preserves them all (each
        // append flushes+fences). The *volatile-only* state (vchunks) is
        // rebuilt.
        let p = PmemPool::new(
            PmemConfig::default()
                .pool_size(8 << 20)
                .latency_mode(LatencyMode::Off)
                .crash_tracking(true),
        );
        let mut t = p.register_thread();
        let mut log = BookLog::create(&p, 0, 1 << 20, 1, false, usize::MAX);
        for i in 0..10u64 {
            log.append(&p, &mut t, entry(i << 12, 4096)).unwrap();
        }
        let reboot = PmemPool::from_crash_image(p.crash());
        let (_, entries) = BookLog::recover(&reboot, 0, 1 << 20, 1, false, usize::MAX);
        assert_eq!(entries.len(), 10);
    }

    #[test]
    fn recovery_resumes_appending_into_tail() {
        let p = pool();
        let mut t = p.register_thread();
        let mut log = BookLog::create(&p, 0, 1 << 20, 6, false, usize::MAX);
        for i in 0..10u64 {
            log.append(&p, &mut t, entry(i << 12, 4096)).unwrap();
        }
        let (mut log2, entries) = BookLog::recover(&p, 0, 1 << 20, 6, false, usize::MAX);
        assert_eq!(entries.len(), 10);
        let r = log2.append(&p, &mut t, entry(999 << 12, 4096)).unwrap();
        // Must not collide with an existing live entry.
        let (_, entries2) = BookLog::recover(&p, 0, 1 << 20, 6, false, usize::MAX);
        assert_eq!(entries2.len(), 11);
        let _ = r;
    }

    #[test]
    fn interleaved_appends_do_not_reflush() {
        let run = |stripes: usize| {
            let p = PmemPool::new(
                PmemConfig::default().pool_size(8 << 20).latency_mode(LatencyMode::Virtual),
            );
            let mut t = p.register_thread();
            let mut log = BookLog::create(&p, 0, 1 << 20, stripes, false, usize::MAX);
            // Warm up: first append carves+links the chunk (one-time header
            // traffic); measure steady-state appends only.
            log.append(&p, &mut t, entry(1 << 12, 4096)).unwrap();
            p.stats().reset();
            for i in 2..66u64 {
                log.append(&p, &mut t, entry(i << 12, 4096)).unwrap();
            }
            p.stats().reflushes()
        };
        assert!(run(1) > 30, "sequential log appends must reflush");
        assert_eq!(run(6), 0, "interleaved appends must not reflush");
    }

    // ---- pmsan mutation tests (ordering-sanitizer sensitivity) ----
    //
    // Delete exactly one flush or one fence from slow GC's alt-bit flip
    // via the `faults` hooks and assert the sanitizer flags that site.

    use nvalloc_pmem::PmsanKind;

    fn san_pool() -> Arc<PmemPool> {
        PmemPool::new(
            PmemConfig::default()
                .pool_size(8 << 20)
                .latency_mode(LatencyMode::Off)
                .crash_tracking(true)
                .pmsan(true),
        )
    }

    #[test]
    fn pmsan_unmutated_slow_gc_is_clean() {
        let p = san_pool();
        let mut t = p.register_thread();
        let mut log = BookLog::create(&p, 0, 1 << 20, 1, true, usize::MAX);
        let r0 = log.append(&p, &mut t, entry(0x10000, 4096)).unwrap();
        log.append(&p, &mut t, entry(0x20000, 4096)).unwrap();
        log.delete(&p, &mut t, r0).unwrap();
        log.slow_gc(&p, &mut t).unwrap();
        assert_eq!(p.pmsan_total(), 0, "{}", p.pmsan_report().unwrap().to_json());
    }

    #[test]
    fn pmsan_flags_deleted_flip_flush() {
        let p = san_pool();
        let mut t = p.register_thread();
        let mut log = BookLog::create(&p, 0, 1 << 20, 1, true, usize::MAX);
        log.append(&p, &mut t, entry(0x10000, 4096)).unwrap();
        assert_eq!(p.pmsan_total(), 0, "setup must be ordering-clean");
        faults::SKIP_FLIP_FLUSH.with(|f| f.set(true));
        log.slow_gc(&p, &mut t).unwrap();
        faults::SKIP_FLIP_FLUSH.with(|f| f.set(false));
        let r = p.pmsan_report().unwrap();
        assert_eq!(r.count(PmsanKind::EmptyFence), 1, "{}", r.to_json());
        assert_eq!(r.total(), 1, "exactly the deleted site: {}", r.to_json());
        // The alt bit never reached media: the header line is unpersisted.
        assert!(!p.pmsan_line_persisted(0), "flip store must still be dirty");
    }

    #[test]
    fn pmsan_flags_deleted_flip_fence() {
        let p = san_pool();
        let mut t = p.register_thread();
        let mut log = BookLog::create(&p, 0, 1 << 20, 1, true, usize::MAX);
        assert_eq!(p.pmsan_total(), 0, "setup must be ordering-clean");
        faults::SKIP_FLIP_FENCE.with(|f| f.set(true));
        log.slow_gc(&p, &mut t).unwrap();
        faults::SKIP_FLIP_FENCE.with(|f| f.set(false));
        // The flush happened but was never fenced: the flip is not
        // durable yet, and no violation has fired so far.
        assert!(!p.pmsan_line_persisted(0), "unfenced flush must not persist");
        assert_eq!(p.pmsan_total(), 0);
        // The next flip stores to the header line while that flush is
        // still pending — exactly the hazard the deleted fence guarded.
        log.slow_gc(&p, &mut t).unwrap();
        let r = p.pmsan_report().unwrap();
        assert_eq!(r.count(PmsanKind::StoreUnfenced), 1, "{}", r.to_json());
        assert_eq!(r.total(), 1, "exactly the deleted site: {}", r.to_json());
        assert_eq!(r.violations[0].line, 0, "violation pinpoints the header line");
    }

    #[test]
    fn window_enumeration_covers_slow_gc_switch() {
        // Enumerate every legal crash image across the slow-GC window:
        // each image must recover to either the pre-GC or post-GC live
        // set — never a mixture, never a loss.
        let p = san_pool();
        let mut t = p.register_thread();
        let mut log = BookLog::create(&p, 0, 1 << 20, 1, true, usize::MAX);
        let r0 = log.append(&p, &mut t, entry(0x10000, 4096)).unwrap();
        for a in [0x20000u64, 0x30000, 0x40000] {
            log.append(&p, &mut t, entry(a, 4096)).unwrap();
        }
        log.delete(&p, &mut t, r0).unwrap();
        p.pmsan_window_begin();
        log.slow_gc(&p, &mut t).unwrap();
        let w = p.pmsan_window_end();
        assert!(w.fence_count() > 0, "slow gc must fence inside the window");
        let images = p.pmsan_window_images(&w, 256);
        assert!(!images.is_empty());
        let want: Vec<u64> = vec![0x20000, 0x30000, 0x40000];
        let n = images.len();
        for (i, img) in images.into_iter().enumerate() {
            let rp = PmemPool::from_crash_image(img);
            let (_, recovered) = BookLog::recover(&rp, 0, 1 << 20, 1, true, usize::MAX);
            let mut got: Vec<u64> = recovered.iter().map(|(_, e)| e.addr).collect();
            got.sort_unstable();
            assert_eq!(got, want, "image {i}/{n} lost or duplicated entries");
        }
        assert_eq!(p.pmsan_total(), 0, "{}", p.pmsan_report().unwrap().to_json());
    }

    #[test]
    fn window_enumeration_covers_slow_gc_reusing_a_reaped_chunk() {
        // Slow GC copies into chunks from the free list. A chunk fast GC
        // reaped from the middle of the chain is still linked in the old
        // chain on media, which recovery reads until the alt flip lands:
        // every crash image across the GC must recover the pre-GC live
        // set exactly. A small pool keeps the ~500 images cheap.
        const REGION: usize = 16 << 10;
        let p = PmemPool::new(
            PmemConfig::default()
                .pool_size(REGION)
                .latency_mode(LatencyMode::Off)
                .crash_tracking(true)
                .pmsan(true),
        );
        let mut t = p.register_thread();
        let mut log = BookLog::create(&p, 0, REGION, 1, false, usize::MAX);
        let mut refs = Vec::new();
        for i in 0..(ENTRIES_PER_CHUNK * 3) as u64 {
            refs.push(log.append(&p, &mut t, entry(i << 12, 4096)).unwrap());
        }
        for r in &refs[ENTRIES_PER_CHUNK..2 * ENTRIES_PER_CHUNK] {
            log.delete(&p, &mut t, *r).unwrap();
        }
        log.fast_gc();
        let reaped = refs[ENTRIES_PER_CHUNK].chunk;
        assert_eq!(log.free, vec![reaped]);
        let want: Vec<u64> = (0..(ENTRIES_PER_CHUNK * 3) as u64)
            .filter(|i| !(ENTRIES_PER_CHUNK as u64..2 * ENTRIES_PER_CHUNK as u64).contains(i))
            .map(|i| i << 12)
            .collect();
        p.pmsan_window_begin();
        let moves = log.slow_gc(&p, &mut t).unwrap();
        let w = p.pmsan_window_end();
        assert!(moves.values().any(|r| r.chunk == reaped), "the copy must reuse the reaped chunk");
        let images = p.pmsan_window_images(&w, usize::MAX);
        let n = images.len();
        assert!(n > 2 * ENTRIES_PER_CHUNK, "one image per copy fence at least, got {n}");
        for (i, img) in images.into_iter().enumerate() {
            let rp = PmemPool::from_crash_image(img);
            let (_, recovered) = BookLog::recover(&rp, 0, REGION, 1, false, usize::MAX);
            let mut got: Vec<u64> = recovered.iter().map(|(_, e)| e.addr).collect();
            got.sort_unstable();
            assert_eq!(got, want, "image {i}/{n} lost or duplicated entries");
        }
        assert_eq!(p.pmsan_total(), 0, "{}", p.pmsan_report().unwrap().to_json());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use nvalloc_pmem::{LatencyMode, PmemConfig, PmemPool};
    use proptest::prelude::*;

    /// Arbitrary append/delete/gc sequences preserve exactly the live
    /// entry set, both in the running log and across recovery.
    fn check(ops: &[(u8, u64)]) -> Result<(), TestCaseError> {
        let pool =
            PmemPool::new(PmemConfig::default().pool_size(8 << 20).latency_mode(LatencyMode::Off));
        let mut t = pool.register_thread();
        let mut log = BookLog::create(&pool, 0, 1 << 20, 6, true, usize::MAX);
        // Model: live normal entries by addr -> (ref, size).
        let mut live: Vec<(EntryRef, u64)> = Vec::new();
        for (i, &(op, x)) in ops.iter().enumerate() {
            match op % 3 {
                0 | 1 => {
                    let addr = ((i as u64 + 1) << 12) % (1 << 30);
                    let e =
                        BookEntry { addr, size: 4096 * (1 + (x % 4) as u32), is_slab: op % 2 == 0 };
                    let r = log.append(&pool, &mut t, e).expect("append");
                    live.push((r, addr));
                }
                _ => {
                    if !live.is_empty() {
                        let idx = (x as usize) % live.len();
                        let (r, _) = live.swap_remove(idx);
                        log.delete(&pool, &mut t, r).expect("delete");
                    }
                }
            }
            if x % 17 == 0 {
                log.fast_gc();
            }
            if x % 29 == 0 {
                let moves = log.slow_gc(&pool, &mut t).expect("slow gc");
                for (r, _) in live.iter_mut() {
                    if let Some(nr) = moves.get(r) {
                        *r = *nr;
                    }
                }
            }
        }
        // Recovery sees exactly the live set.
        let (_, recovered) = BookLog::recover(&pool, 0, 1 << 20, 6, true, usize::MAX);
        let mut got: Vec<u64> = recovered.iter().map(|(_, e)| e.addr).collect();
        let mut want: Vec<u64> = live.iter().map(|(_, a)| *a).collect();
        got.sort_unstable();
        want.sort_unstable();
        prop_assert_eq!(got, want);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        #[test]
        fn booklog_preserves_live_set(ops in proptest::collection::vec((any::<u8>(), any::<u64>()), 1..300)) {
            check(&ops)?;
        }
    }
}
