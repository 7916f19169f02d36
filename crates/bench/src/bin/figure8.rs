//! Figure 8: go-datastructures set benchmarks, lock vs. GOCC.
//!
//! `Len` is the paper's ~1000% case (tiny read section, lock entry/exit
//! dominated); `Exists` scales almost as well; `Flatten` wins while its
//! cache holds but loses the advantage once cache-update conflicts rise
//! (the perceptron then pins it to the lock — no collapse); `Clear` has
//! true conflicts and must show no speedup *and* no collapse.

use gocc_bench::{
    print_geomeans, print_header, sweep_driver, warm_measure, write_bench_json, SweepResult,
    DEFAULT_WINDOW,
};
use gocc_workloads::set::{Set, FLATTEN_ITEMS};
use gocc_workloads::Engine;

fn set_sweep(
    name: &str,
    preload: usize,
    op: impl Fn(&Engine<'_>, &Set, usize, u64) + Sync,
) -> SweepResult {
    sweep_driver(name, true, DEFAULT_WINDOW, &|engine, cores, window| {
        let set = Set::new(engine.runtime().htm(), preload);
        warm_measure(cores, window, |w, i| op(engine, &set, w, i))
    })
}

fn main() {
    print_header("Figure 8: set (lock vs GOCC)");
    let mut results: Vec<SweepResult> = Vec::new();

    results.push(set_sweep("Len", FLATTEN_ITEMS, |e, s, _, _| {
        let _ = s.len(e);
    }));

    // Paper: "each goroutine searches one item in a set containing only
    // one item".
    results.push(set_sweep("Exists", 1, |e, s, _, _| {
        let _ = s.exists(e, 0);
    }));

    results.push(set_sweep("Flatten", FLATTEN_ITEMS, |e, s, worker, i| {
        // Occasional adds dirty the cache so flattening does real work and
        // the cache update introduces conflicts at high core counts.
        if i % 128 == 0 {
            s.add(e, (worker * 1000 + i as usize % 50) as u64);
        }
        let _ = s.flatten(e);
    }));

    results.push(set_sweep("Clear", FLATTEN_ITEMS, |e, s, _, i| {
        // Refill a little so Clear always has work; true conflicts.
        s.add(e, i % 64);
        s.clear(e);
    }));

    results.push(set_sweep("Add", 0, |e, s, worker, i| {
        s.add(e, (worker as u64) << 32 | (i % 1024));
    }));

    for r in &results {
        r.print();
    }
    println!();
    print_geomeans(&results);
    write_bench_json("figure8", &results);
}
