//! Figure 6: Tally benchmarks, lock vs. GOCC, 1/2/4/8 simulated cores.
//!
//! Reproduces the benchmark set §6.1 discusses: `HistogramExisting` (the
//! headline ~660% case — a read-only probe whose RWMutex entry/exit RMWs
//! collapse under contention while the elided version stays conflict-
//! free), `ScopeReporting1`/`ScopeReporting10` (three independent
//! RWMutexes; 10× more work shrinks the relative win), the conflicting
//! allocation benchmarks, and non-sensitive pure-compute benchmarks that
//! must stay within noise.

use gocc_bench::{
    print_geomeans, print_header, sweep_driver, warm_measure, write_bench_json, SweepResult,
    DEFAULT_WINDOW,
};
use gocc_workloads::tally::Scope;
use gocc_workloads::Engine;

const PRELOADED: usize = 512;

/// Builds a sweep whose op closure sees a fresh (runtime, scope, engine)
/// triple per measured point.
fn tally_sweep(
    name: &str,
    sensitive: bool,
    op: impl Fn(&Engine<'_>, &Scope, usize, u64) + Sync,
) -> SweepResult {
    sweep_driver(name, sensitive, DEFAULT_WINDOW, &|engine, cores, window| {
        let scope = Scope::new(engine.runtime().htm(), PRELOADED);
        warm_measure(cores, window, |w, i| op(engine, &scope, w, i))
    })
}

fn main() {
    print_header("Figure 6: Tally (lock vs GOCC)");
    let mut results: Vec<SweepResult> = Vec::new();

    results.push(tally_sweep("HistogramExisting", true, |e, s, worker, i| {
        let name = Scope::name_hash((worker * 131 + i as usize) % PRELOADED);
        let _ = s.histogram_exists(e, name);
    }));

    results.push(tally_sweep("ScopeReporting1", true, |e, s, _, _| {
        let _ = s.scope_reporting(e, 1);
    }));

    results.push(tally_sweep("ScopeReporting10", true, |e, s, _, _| {
        let _ = s.scope_reporting(e, 10);
    }));

    results.push(tally_sweep("CounterIncrement", true, |e, s, worker, i| {
        s.counter_inc(e, (worker * 61 + i as usize) % 256);
    }));

    results.push(tally_sweep("CounterAllocation", true, |e, s, worker, i| {
        // Fresh names: allocations genuinely conflict on the registry.
        let name = Scope::name_hash(1_000_000 + worker * 10_000_000 + i as usize);
        let _ = s.counter_allocation(e, name);
    }));

    results.push(tally_sweep(
        "SanitizedCounterAlloc",
        true,
        |e, s, worker, i| {
            let name = format!("svc.host-{worker}.metric/{i}");
            let _ = s.sanitized_counter_allocation(e, &name);
        },
    ));

    results.push(tally_sweep("NameGeneration", false, |_, s, worker, i| {
        let _ = s.name_generation(worker + i as usize);
    }));

    results.push(tally_sweep("TagFormatting", false, |_, _, worker, i| {
        // Pure compute, no locks: the non-sensitive control group.
        let mut h = i ^ worker as u64;
        for _ in 0..32 {
            h = h.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
        }
        std::hint::black_box(h);
    }));

    for r in &results {
        r.print();
    }
    println!();
    print_geomeans(&results);
    write_bench_json("figure6", &results);
}
