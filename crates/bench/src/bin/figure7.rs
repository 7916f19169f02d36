//! Figure 7: go-cache benchmarks, lock vs. GOCC.
//!
//! The direct-map benchmarks (RWMutex around plain map access) are the
//! >100% group of the paper — elision removes the contended reader-count
//! > RMWs entirely. The cache-layer benchmarks are mildly improved and,
//! > critically, never degraded.

use gocc_bench::{
    print_geomeans, print_header, sweep_driver, warm_measure, write_bench_json, SweepResult,
    DEFAULT_WINDOW,
};
use gocc_workloads::gocache::{Cache, RwMap};
use gocc_workloads::Engine;

const KEYS: usize = 256;

fn map_sweep(name: &str, op: impl Fn(&Engine<'_>, &RwMap, usize, u64) + Sync) -> SweepResult {
    sweep_driver(name, true, DEFAULT_WINDOW, &|engine, cores, window| {
        let map = RwMap::new(engine.runtime().htm(), KEYS);
        warm_measure(cores, window, |w, i| op(engine, &map, w, i))
    })
}

fn cache_sweep(name: &str, op: impl Fn(&Engine<'_>, &Cache, usize, u64) + Sync) -> SweepResult {
    sweep_driver(name, true, DEFAULT_WINDOW, &|engine, cores, window| {
        let cache = Cache::new(engine.runtime().htm(), KEYS);
        warm_measure(cores, window, |w, i| op(engine, &cache, w, i))
    })
}

fn main() {
    print_header("Figure 7: go-cache (lock vs GOCC)");
    let mut results: Vec<SweepResult> = Vec::new();

    results.push(map_sweep("RWMutexMapGet", |e, m, worker, i| {
        let _ = m.get(e, RwMap::key((worker * 31 + i as usize) % KEYS));
    }));

    results.push(map_sweep("RWMutexMapGetHot", |e, m, _, _| {
        // Repeatedly accessing the same item in a small map.
        let _ = m.get(e, RwMap::key(7));
    }));

    results.push(map_sweep("RWMutexMapLen", |e, m, _, _| {
        let _ = m.len(e);
    }));

    results.push(map_sweep("RWMutexMapMostlyRead", |e, m, worker, i| {
        // 1-in-64 writes: the realistic read-mostly mix.
        let k = (worker * 17 + i as usize) % KEYS;
        if i % 64 == 0 {
            m.set(e, RwMap::key(k), i);
        } else {
            let _ = m.get(e, RwMap::key(k));
        }
    }));

    results.push(cache_sweep("CacheGetNotExpiring", |e, c, worker, i| {
        let _ = c.get(e, RwMap::key((worker * 13 + i as usize) % KEYS));
    }));

    results.push(cache_sweep("CacheSet", |e, c, worker, i| {
        c.set(e, RwMap::key((worker * 7 + i as usize) % KEYS), i, 0);
    }));

    results.push(cache_sweep("CacheSetDelete", |e, c, worker, i| {
        let k = RwMap::key((worker * 11 + i as usize) % KEYS);
        c.set(e, k, i, 0);
        c.delete(e, k);
    }));

    results.push(cache_sweep("CacheItemCount", |e, c, _, _| {
        let _ = c.item_count(e);
    }));

    for r in &results {
        r.print();
    }
    println!();
    print_geomeans(&results);
    write_bench_json("figure7", &results);
}
