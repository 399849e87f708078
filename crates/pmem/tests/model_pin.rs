//! Pins the latency model's output on a fixed, seeded flush/fence
//! sequence: every [`StatsSnapshot`] field, the thread's virtual clock and
//! a hash of the Fig. 2 flush-address trace, in ADR/Virtual, ADR/Off and
//! eADR/Virtual. The expected values were captured from the model before
//! its bookkeeping was restructured; any change to classification,
//! charging or counting shows up here as a mismatch.

use nvalloc_pmem::{
    FlushKind, LatencyMode, PmThread, PmemConfig, PmemMode, PmemPool, StatsSnapshot,
};

const POOL: u64 = 16 << 20;

/// SplitMix64: a fixed generator, so the sequence never depends on a
/// crate's RNG version.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Store, charge (eADR) and flush `len` bytes at `off`.
fn persist(pool: &PmemPool, t: &mut PmThread, off: u64, len: usize, kind: FlushKind) {
    pool.write_u64(off & !7, off);
    pool.charge_store(t, off, len);
    pool.flush(t, off, len, kind);
}

fn drive(pool: &PmemPool, t: &mut PmThread) {
    let kinds = FlushKind::ALL;
    // Reflushes at distances 0..=5: line A, `d` distinct fillers, A again.
    for d in 0..=5u64 {
        let a = (1 << 20) + (d << 12);
        persist(pool, t, a, 8, kinds[d as usize % 4]);
        for k in 1..=d {
            persist(pool, t, a + k * 64, 8, kinds[(d + k) as usize % 4]);
        }
        persist(pool, t, a, 8, kinds[d as usize % 4]);
        pool.fence(t);
    }
    // A sequential run, then random jumps across the pool.
    let mut rng = SplitMix(0x00C0_FFEE_5EED_0001);
    for i in 0..48 {
        persist(pool, t, (2 << 20) + i * 64, 8, FlushKind::Wal);
    }
    pool.fence(t);
    for i in 0..48 {
        persist(pool, t, rng.below(POOL / 64) * 64, 8, FlushKind::Meta);
        if i % 4 == 3 {
            pool.fence(t);
        }
    }
    // XPBuffer churn: 12 XPLines (more than the default 8) cycled six
    // times, a different line of each XPLine per round.
    for round in 0..6u64 {
        for x in 0..12u64 {
            persist(pool, t, (3 << 20) + x * 256 + (round % 4) * 64, 8, FlushKind::BookLog);
        }
        pool.fence(t);
    }
    // Multi-line flushes: 200 B over four lines, 1 KiB across XPLines.
    persist(pool, t, (4 << 20) + 40, 200, FlushKind::Data);
    persist(pool, t, (4 << 20) + 1000, 1024, FlushKind::Meta);
    pool.fence(t);
    // Seeded mix of all of the above.
    let mut recent = [5 << 20; 8];
    let mut cursor = 6 << 20;
    for i in 0..4000usize {
        let kind = kinds[rng.below(4) as usize];
        let off = match rng.below(6) {
            0 | 1 => recent[rng.below(6) as usize],
            2 | 3 => {
                cursor = (cursor + 64) % POOL;
                cursor
            }
            _ => rng.below(POOL / 64) * 64,
        };
        let len = if rng.below(10) == 0 { 1 + rng.below(512) as usize } else { 8 };
        let off = off.min(POOL - len as u64);
        persist(pool, t, off, len, kind);
        recent[i % recent.len()] = off;
        if rng.below(4) == 0 {
            pool.fence(t);
        }
    }
}

/// FNV-1a over each trace record's `(seq, addr, kind)`.
fn trace_hash(pool: &PmemPool) -> (usize, u64) {
    let trace = pool.stats().trace();
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for r in &trace {
        let kind = FlushKind::ALL.iter().position(|k| *k == r.kind).expect("known kind") as u64;
        for w in [r.seq, r.addr, kind] {
            for b in w.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0100_0000_01B3);
            }
        }
    }
    (trace.len(), h)
}

fn run(latency: LatencyMode, mode: PmemMode) -> (StatsSnapshot, u64, (usize, u64)) {
    let pool = PmemPool::new(
        PmemConfig::default().pool_size(POOL as usize).latency_mode(latency).pmem_mode(mode),
    );
    pool.stats().enable_trace();
    let mut t = pool.register_thread();
    drive(&pool, &mut t);
    (pool.stats().snapshot(), t.virtual_ns(), trace_hash(&pool))
}

#[test]
fn adr_virtual_is_pinned() {
    let got = run(LatencyMode::Virtual, PmemMode::Adr);
    let want = (
        StatsSnapshot {
            flushes: 5636,
            reflushes: 839,
            fences: 1043,
            seq_writes: 2778,
            rand_writes: 2858,
            bytes_flushed: 360704,
            xpbuf_misses: 118,
            kind_flushes: [1423, 1429, 1439, 1345],
            kind_reflushes: [210, 194, 213, 222],
            kind_ns: [362410, 352570, 375840, 357850],
        },
        1479960,
        (5636, 3285513043572330785),
    );
    assert_eq!(got, want);
}

#[test]
fn adr_off_is_pinned() {
    let got = run(LatencyMode::Off, PmemMode::Adr);
    let want = (
        StatsSnapshot {
            flushes: 5636,
            reflushes: 839,
            fences: 1043,
            seq_writes: 2778,
            rand_writes: 2858,
            bytes_flushed: 360704,
            xpbuf_misses: 118,
            kind_flushes: [1423, 1429, 1439, 1345],
            kind_reflushes: [210, 194, 213, 222],
            kind_ns: [0; 4],
        },
        0,
        (5636, 3285513043572330785),
    );
    assert_eq!(got, want);
}

#[test]
fn eadr_virtual_is_pinned() {
    let got = run(LatencyMode::Virtual, PmemMode::Eadr);
    let want = (
        StatsSnapshot {
            flushes: 5636,
            reflushes: 0,
            fences: 1043,
            seq_writes: 2778,
            rand_writes: 2858,
            bytes_flushed: 360704,
            xpbuf_misses: 0,
            kind_flushes: [1423, 1429, 1439, 1345],
            kind_reflushes: [0; 4],
            kind_ns: [0; 4],
        },
        345930,
        (5636, 3285513043572330785),
    );
    assert_eq!(got, want);
}
