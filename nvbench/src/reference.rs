//! The host reference: a fixed workload owned by the benchmark, of the same
//! character as an allocator op (system `malloc`/`free` churn and ordered-map
//! updates), timed between rounds on the same CPUs the workers use.
//!
//! The host this benchmark was built on is a shared virtual machine whose
//! speed for load/store-heavy code changes by 30–40 % in phases lasting from
//! a second to minutes, while a register-only loop does not slow at all. The
//! reference slows with the allocator in those phases, so host times divided
//! by it stay put while the raw times swing.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::gen::Rng;
use crate::replay::pin_to_cpu;

/// Reference ops per timed pass (about 8 ms on a 2.1 GHz core).
const OPS: u64 = 40_000;
/// Untimed ops that fill the slot array and the map first.
const WARM: u64 = 8_000;

/// Host ns per reference op: the mean over `threads` threads, each pinned
/// to its own CPU as the replay's workers are. One thread runs on the
/// caller's thread, where the 1-worker replays run.
pub fn reference_ns(threads: usize) -> f64 {
    if threads == 1 {
        return one_pass(0);
    }
    let per: Vec<f64> = std::thread::scope(|s| {
        let hs: Vec<_> = (0..threads)
            .map(|k| {
                s.spawn(move || {
                    pin_to_cpu(k);
                    one_pass(k as u64)
                })
            })
            .collect();
        hs.into_iter().map(|h| h.join().expect("reference thread panicked")).collect()
    });
    per.iter().sum::<f64>() / threads as f64
}

/// One reference op: replace or drop a random slot's heap block (16 B to
/// 1 KiB) and toggle a random key of an ordered map.
fn one_pass(stream: u64) -> f64 {
    let mut rng = Rng::new(0x7E57 ^ stream);
    let mut slots: Vec<Option<Box<[u8]>>> = (0..1024).map(|_| None).collect();
    let mut map = BTreeMap::new();
    let mut step = |rng: &mut Rng| {
        let i = rng.below(1024) as usize;
        slots[i] = match slots[i] {
            Some(_) => None,
            None => Some(vec![i as u8; 16 + rng.below(1008) as usize].into_boxed_slice()),
        };
        let key = rng.below(4096);
        if map.remove(&key).is_none() {
            map.insert(key, i);
        }
    };
    for _ in 0..WARM {
        step(&mut rng);
    }
    let start = Instant::now();
    for _ in 0..OPS {
        step(&mut rng);
    }
    let ns = start.elapsed().as_nanos() as f64 / OPS as f64;
    std::hint::black_box((&slots, &map));
    ns
}
