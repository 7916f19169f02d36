//! `txds::map` under goccd's access pattern: many threads hammering one
//! `Cache` shard with the server's verb mix (GET/SET/DEL/INCR plus
//! periodic full-table SCANs), in both execution modes.
//!
//! Threads own disjoint key partitions, so the final store contents are a
//! deterministic function of the per-thread seeded op streams no matter
//! how the scheduler interleaves them — which lets us check the
//! concurrent outcome of each mode against a sequential `HashMap` oracle,
//! and the two modes against each other. SCANs walk the whole table
//! (every slot is in the read set) while writers mutate other partitions;
//! under GOCC that is exactly the capacity-abort/conflict shape the
//! server's SCAN verb produces.

use std::collections::HashMap;

use gocc_repro::optilock::GoccRuntime;
use gocc_repro::telemetry::SplitMix64;
use gocc_repro::workloads::gocache::{Cache, RwMap};
use gocc_repro::workloads::{Engine, Mode};

const THREADS: usize = 4;
const KEYS_PER_THREAD: usize = 64;
const OPS_PER_THREAD: usize = 400;
const SCAN_EVERY: usize = 32;

#[derive(Clone, Debug)]
enum Op {
    Get(usize),
    Set(usize, u64, u64),
    Del(usize),
    Incr(usize, u64),
    Scan,
}

/// The seeded op stream for one thread, over its own key partition.
fn thread_ops(t: usize, seed: u64) -> Vec<Op> {
    let mut rng = SplitMix64::new(seed ^ (t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let base = t * KEYS_PER_THREAD;
    (0..OPS_PER_THREAD)
        .map(|i| {
            let key = base + rng.below_usize(KEYS_PER_THREAD);
            if (i + 1) % SCAN_EVERY == 0 {
                return Op::Scan;
            }
            // Server-ish mix: half reads, writes split between blind
            // stores, deletes, and read-modify-write increments.
            match rng.below(10) {
                0..=4 => Op::Get(key),
                5..=7 => Op::Set(key, rng.next_u64(), rng.below(4)),
                8 => Op::Del(key),
                _ => Op::Incr(key, rng.below(100)),
            }
        })
        .collect()
}

/// Runs all threads' streams concurrently against one shared cache and
/// returns its final contents.
fn run_concurrent(mode: Mode, streams: &[Vec<Op>]) -> HashMap<u64, u64> {
    let rt = GoccRuntime::new_default();
    let cache = Cache::with_capacity(2 * THREADS * KEYS_PER_THREAD);
    let engine = Engine::new(&rt, mode);
    std::thread::scope(|s| {
        for ops in streams {
            let (engine, cache) = (&engine, &cache);
            s.spawn(move || {
                for op in ops {
                    match *op {
                        Op::Get(k) => {
                            cache.get(engine, RwMap::key(k));
                        }
                        Op::Set(k, v, ttl) => cache.set(engine, RwMap::key(k), v, ttl),
                        Op::Del(k) => {
                            cache.delete(engine, RwMap::key(k));
                        }
                        Op::Incr(k, d) => {
                            cache.incr(engine, RwMap::key(k), d);
                        }
                        Op::Scan => {
                            // Whole-table read set racing other threads'
                            // writes; the result is interleaving-dependent
                            // so only its bound is checkable.
                            let dump = cache.scan(engine, usize::MAX);
                            assert!(dump.len() <= THREADS * KEYS_PER_THREAD);
                        }
                    }
                }
            });
        }
    });
    cache.scan(&engine, usize::MAX).into_iter().collect()
}

/// Replays the same streams sequentially into a plain `HashMap`. Partition
/// disjointness makes stream order irrelevant to the final state.
fn oracle(streams: &[Vec<Op>]) -> HashMap<u64, u64> {
    let mut map = HashMap::new();
    for ops in streams {
        for op in ops {
            match *op {
                Op::Get(_) | Op::Scan => {}
                Op::Set(k, v, _ttl) => {
                    // No clock ticks are issued, so TTL entries never
                    // expire and the oracle can ignore expirations.
                    map.insert(RwMap::key(k), v);
                }
                Op::Del(k) => {
                    map.remove(&RwMap::key(k));
                }
                Op::Incr(k, d) => {
                    let e = map.entry(RwMap::key(k)).or_insert(0);
                    *e = e.wrapping_add(d);
                }
            }
        }
    }
    map
}

#[test]
fn server_verb_mix_converges_to_the_oracle_in_both_modes() {
    for seed in [0xD15C0_u64, 0xBEEF, 7] {
        let streams: Vec<Vec<Op>> = (0..THREADS).map(|t| thread_ops(t, seed)).collect();
        let expected = oracle(&streams);
        for mode in [Mode::Lock, Mode::Gocc] {
            let got = run_concurrent(mode, &streams);
            assert_eq!(got, expected, "seed {seed:#x} mode {mode:?}");
        }
    }
}
