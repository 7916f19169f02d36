//! Figure 9: fastcache benchmarks, lock vs. GOCC.
//!
//! `CacheGet`/`CacheHas` carry the speedups (Has more than Get — shorter
//! section, fewer conflicts on the shared stats counters); `CacheSet` is
//! untransformed (panic-guarded) and must be neutral; `CacheSetGet` is
//! the paper's starved-mutex curiosity: each worker runs a Set loop and
//! then a Get loop, and the baseline's starvation-mode hand-offs shape
//! the result.

use gocc_bench::{
    print_geomeans, print_header, sweep_driver, warm_measure, write_bench_json, SweepResult,
    DEFAULT_WINDOW,
};
use gocc_workloads::fastcache::FastCache;
use gocc_workloads::Engine;

const KEYS: usize = 512;
const SETGET_BATCH: usize = 64;

fn cache_sweep(
    name: &str,
    sensitive: bool,
    op: impl Fn(&Engine<'_>, &FastCache, usize, u64) + Sync,
) -> SweepResult {
    sweep_driver(name, sensitive, DEFAULT_WINDOW, &|engine, cores, window| {
        let cache = FastCache::new(KEYS * 4);
        cache.preload(
            engine.runtime().htm(),
            KEYS,
            b"fastcache-value-0123456789abcdef",
        );
        warm_measure(cores, window, |w, i| op(engine, &cache, w, i))
    })
}

fn main() {
    print_header("Figure 9: fastcache (lock vs GOCC)");
    let mut results: Vec<SweepResult> = Vec::new();

    results.push(cache_sweep("CacheGet", true, |e, c, worker, i| {
        let _ = c.get(e, FastCache::key((worker * 37 + i as usize) % KEYS));
    }));

    results.push(cache_sweep("CacheHas", true, |e, c, worker, i| {
        let _ = c.has(e, FastCache::key((worker * 29 + i as usize) % KEYS));
    }));

    results.push(cache_sweep("CacheSet", false, |e, c, worker, i| {
        // Untransformed in both modes: the neutral benchmark.
        c.set(
            e,
            FastCache::key((worker * 41 + i as usize) % KEYS),
            b"updated-value",
        );
    }));

    results.push(cache_sweep("CacheSetGet", true, |e, c, worker, i| {
        // Each "iteration" is a Set burst followed by a Get burst, like
        // the benchmark's two loops per goroutine.
        let base = (worker * 7919 + i as usize * SETGET_BATCH) % KEYS;
        for j in 0..SETGET_BATCH {
            c.set(e, FastCache::key((base + j) % KEYS), b"sg");
        }
        for j in 0..SETGET_BATCH {
            let _ = c.get(e, FastCache::key((base + j) % KEYS));
        }
    }));

    for r in &results {
        r.print();
    }
    println!();
    print_geomeans(&results);
    write_bench_json("figure9", &results);
}
