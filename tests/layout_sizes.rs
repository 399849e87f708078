//! Compile-time persistent-layout table.
//!
//! Every `#[repr(C)]` mirror of an on-media structure must have its size,
//! alignment, and field offsets pinned here — `nvalloc_lint`'s
//! `repr-c-sizes` rule fails the build if a `#[repr(C)]` type in
//! `crates/core` or `crates/pmem` is missing from this file. A change to
//! any persistent format therefore shows up as a deliberate edit to this
//! table, next to the comment explaining what the old layout promised.

use std::mem::{align_of, offset_of, size_of};

use nvalloc::internals::{
    ChunkHeaderRaw, LogHeaderRaw, SlabHeaderRaw, WalEntryRaw, CHUNK_HEADER_BYTES, LOG_HEADER_BYTES,
    WAL_ENTRY_BYTES,
};

/// WAL entry slots are 32 B — two per cache line, which is what makes the
/// `IM(WAL)` interleaving experiment (Table 2) meaningful.
#[test]
fn wal_entry_layout() {
    assert_eq!(size_of::<WalEntryRaw>(), WAL_ENTRY_BYTES);
    assert_eq!(size_of::<WalEntryRaw>(), 32);
    assert_eq!(align_of::<WalEntryRaw>(), 8);
    assert_eq!(offset_of!(WalEntryRaw, addr), 0);
    assert_eq!(offset_of!(WalEntryRaw, dest), 8);
    assert_eq!(offset_of!(WalEntryRaw, op_size), 16);
    assert_eq!(offset_of!(WalEntryRaw, seq), 24);
}

/// The log-region header is exactly one cache line, so the slow-GC `alt`
/// flip and both chain heads persist with single-line flushes.
#[test]
fn booklog_log_header_layout() {
    assert_eq!(size_of::<LogHeaderRaw>(), LOG_HEADER_BYTES);
    assert_eq!(size_of::<LogHeaderRaw>(), 64);
    assert_eq!(align_of::<LogHeaderRaw>(), 8);
    assert_eq!(offset_of!(LogHeaderRaw, alt), 0);
    assert_eq!(offset_of!(LogHeaderRaw, head_a), 8);
    assert_eq!(offset_of!(LogHeaderRaw, head_b), 16);
    assert_eq!(offset_of!(LogHeaderRaw, carved), 24);
    assert_eq!(offset_of!(LogHeaderRaw, reserved), 32);
}

/// Chunk headers are one cache line; the id|epoch word and the next
/// pointer share it so a chunk link persists with one flush.
#[test]
fn booklog_chunk_header_layout() {
    assert_eq!(size_of::<ChunkHeaderRaw>(), CHUNK_HEADER_BYTES);
    assert_eq!(size_of::<ChunkHeaderRaw>(), 64);
    assert_eq!(align_of::<ChunkHeaderRaw>(), 8);
    assert_eq!(offset_of!(ChunkHeaderRaw, id_epoch), 0);
    assert_eq!(offset_of!(ChunkHeaderRaw, next), 8);
    assert_eq!(offset_of!(ChunkHeaderRaw, reserved), 16);
}

/// The fixed slab header is three packed words; word 0 doubles as the
/// morph-step flag (persisted alone by `persist_flag`), so it must stay
/// the first word of the slab.
#[test]
fn slab_header_layout() {
    assert_eq!(size_of::<SlabHeaderRaw>(), 24);
    assert_eq!(align_of::<SlabHeaderRaw>(), 8);
    assert_eq!(offset_of!(SlabHeaderRaw, magic_class_flag), 0);
    assert_eq!(offset_of!(SlabHeaderRaw, data_old_index), 8);
    assert_eq!(offset_of!(SlabHeaderRaw, old_data_table), 16);
}
