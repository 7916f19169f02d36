//! Cross-crate integration: the transformed program is observationally
//! equivalent to the pessimistic one (the paper's core guarantee, §4.1).

use gocc_repro::htm::Tx;
use gocc_repro::optilock::GoccRuntime;
use gocc_repro::telemetry::SplitMix64;
use gocc_repro::workloads::fastcache::FastCache;
use gocc_repro::workloads::gocache::{Cache, RwMap};
use gocc_repro::workloads::set::Set;
use gocc_repro::workloads::tally::Scope;
use gocc_repro::workloads::{Engine, Mode};

/// Runs the same seeded op mix in both modes and compares final state.
#[test]
fn gocache_final_state_matches_across_modes() {
    const KEYS: usize = 64;
    let final_state = |mode: Mode| -> Vec<Option<u64>> {
        let rt = GoccRuntime::new_default();
        let map = RwMap::new(rt.htm(), KEYS);
        let engine = Engine::new(&rt, mode);
        // Deterministic per-thread op streams; disjoint key ranges per
        // thread make the final state independent of interleaving.
        std::thread::scope(|s| {
            for t in 0..4usize {
                let (engine, map) = (&engine, &map);
                s.spawn(move || {
                    let mut rng = SplitMix64::new(42 + t as u64);
                    let lo = t * (KEYS / 4);
                    let hi = lo + KEYS / 4;
                    for _ in 0..500 {
                        let k = rng.range(lo as u64, hi as u64) as usize;
                        if rng.chance(0.3) {
                            map.set(engine, RwMap::key(k), rng.below(1000));
                        } else {
                            let _ = map.get(engine, RwMap::key(k));
                        }
                    }
                    // Deterministic tail write so the final value is fixed.
                    for k in lo..hi {
                        map.set(engine, RwMap::key(k), (k * 7) as u64);
                    }
                });
            }
        });
        (0..KEYS).map(|k| map.get(&engine, RwMap::key(k))).collect()
    };
    assert_eq!(final_state(Mode::Lock), final_state(Mode::Gocc));
}

#[test]
fn set_invariants_hold_under_mixed_concurrency() {
    let rt = GoccRuntime::new_default();
    let set = Set::new(rt.htm(), 0);
    let engine = Engine::new(&rt, Mode::Gocc);
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let (engine, set) = (&engine, &set);
            s.spawn(move || {
                for i in 0..200 {
                    let item = t * 10_000 + i;
                    set.add(engine, item);
                    assert!(set.exists(engine, item), "immediately visible after add");
                    let _ = set.len(engine);
                    if i % 10 == 9 {
                        let flat = set.flatten(engine);
                        assert!(flat.len() as u64 <= 4 * 200, "flatten never over-reports");
                    }
                }
            });
        }
    });
    assert_eq!(set.len(&engine), 800);
    let mut flat = set.flatten(&engine);
    flat.sort_unstable();
    flat.dedup();
    assert_eq!(flat.len(), 800, "no duplicates, no losses");
}

#[test]
fn fastcache_stats_are_exact_despite_elision() {
    let rt = GoccRuntime::new_default();
    let cache = FastCache::new(512);
    cache.preload(rt.htm(), 32, b"seed");
    let engine = Engine::new(&rt, Mode::Gocc);
    const GETS_PER_THREAD: u64 = 300;
    std::thread::scope(|s| {
        for t in 0..3usize {
            let (engine, cache) = (&engine, &cache);
            s.spawn(move || {
                for i in 0..GETS_PER_THREAD {
                    // Half hits, half misses.
                    let k = if i % 2 == 0 {
                        (t as u64 + i) % 32
                    } else {
                        1000 + i
                    };
                    let _ = cache.get(engine, FastCache::key(k as usize));
                }
            });
        }
    });
    let (gets, _sets, misses) = cache.stats(&engine);
    assert_eq!(
        gets,
        3 * GETS_PER_THREAD,
        "the shared get counter must be exact"
    );
    assert_eq!(misses, 3 * GETS_PER_THREAD / 2, "half of the gets miss");
}

#[test]
fn tally_registry_is_exact_under_allocation_storm() {
    let rt = GoccRuntime::new_default();
    let scope = Scope::new(rt.htm(), 0);
    let engine = Engine::new(&rt, Mode::Gocc);
    std::thread::scope(|s| {
        for t in 0..4usize {
            let (engine, scope) = (&engine, &scope);
            s.spawn(move || {
                for i in 0..100 {
                    // Unique names per thread: every allocation is fresh.
                    let _ = scope.counter_allocation(engine, Scope::name_hash(t * 1000 + i));
                }
            });
        }
    });
    // Every name resolves to a stable slot afterwards.
    for t in 0..4usize {
        for i in 0..100 {
            let a = scope.counter_allocation(&engine, Scope::name_hash(t * 1000 + i));
            let b = scope.counter_allocation(&engine, Scope::name_hash(t * 1000 + i));
            assert_eq!(a, b);
        }
    }
}

#[test]
fn expiring_cache_equivalence() {
    for mode in [Mode::Lock, Mode::Gocc] {
        let rt = GoccRuntime::new_default();
        let cache = Cache::new(rt.htm(), 8);
        let engine = Engine::new(&rt, mode);
        cache.set(&engine, RwMap::key(100), 1, 1);
        cache.set(&engine, RwMap::key(101), 2, 0);
        cache.tick(&engine);
        cache.tick(&engine);
        assert_eq!(cache.get(&engine, RwMap::key(100)), None, "mode {mode:?}");
        assert_eq!(
            cache.get(&engine, RwMap::key(101)),
            Some(2),
            "mode {mode:?}"
        );
    }
}

#[test]
fn global_runtime_stats_accumulate() {
    let rt = GoccRuntime::new_default();
    let engine = Engine::new(&rt, Mode::Gocc);
    let m = gocc_repro::optilock::ElidableMutex::new();
    let v = gocc_repro::txds::TxCounter::new(0);
    for _ in 0..10 {
        engine.section(
            gocc_repro::optilock::call_site!(),
            gocc_repro::optilock::LockRef::Mutex(&m),
            |tx| v.add(tx, 1),
        );
    }
    let mut tx = Tx::direct(rt.htm());
    assert_eq!(v.get(&mut tx).unwrap(), 10);
    tx.commit().unwrap();
    let s = rt.stats().snapshot();
    assert_eq!(s.fast_commits + s.slow_sections, 10);
}
