//! §6.1 Zap results: mild geomean speedup, rare small slowdowns.
//!
//! The paper reports ~4% geometric-mean improvement with a 28% best case
//! and a worst-case 7% slowdown — a logging library keeps IO inside its
//! critical sections, so few locks elide and most benchmarks are carried
//! by the hot level-check/field-lookup paths.

use gocc_bench::{
    print_geomeans, print_header, sweep_driver, warm_measure, write_bench_json, SweepResult,
    DEFAULT_WINDOW,
};
use gocc_workloads::zaplite::{Logger, INFO};
use gocc_workloads::Engine;

const FIELDS: usize = 64;

fn zap_sweep(
    name: &str,
    sensitive: bool,
    op: impl Fn(&Engine<'_>, &Logger, usize, u64) + Sync,
) -> SweepResult {
    sweep_driver(name, sensitive, DEFAULT_WINDOW, &|engine, cores, window| {
        let log = Logger::new(engine.runtime().htm(), FIELDS);
        warm_measure(cores, window, |w, i| op(engine, &log, w, i))
    })
}

fn main() {
    print_header("Zap (lock vs GOCC) — §6.1 prose results");
    let mut results: Vec<SweepResult> = Vec::new();

    results.push(zap_sweep("LevelEnabled", true, |e, l, _, _| {
        let _ = l.enabled(e, INFO);
    }));

    results.push(zap_sweep("FieldLookup", true, |e, l, worker, i| {
        let _ = l.field(e, Logger::field_key((worker * 13 + i as usize) % FIELDS));
    }));

    results.push(zap_sweep("CheckedLog", true, |e, l, worker, i| {
        // Level check + field resolution + IO-tailed write: the realistic
        // hot pipeline.
        let _ = l.infow(e, (worker + i as usize) % FIELDS, 48);
    }));

    results.push(zap_sweep("WriteOnly", false, |e, l, _, _| {
        // IO-dominated section: stays on the lock in both modes.
        l.write(e, 128);
    }));

    results.push(zap_sweep("WithField", true, |e, l, worker, i| {
        l.with_field(e, Logger::field_key((worker * 7 + i as usize) % FIELDS), i);
    }));

    for r in &results {
        r.print();
    }
    println!();
    print_geomeans(&results);
    write_bench_json("zap_results", &results);
    println!();
    println!("expected shape (paper): mild overall geomean gain, no benchmark losing");
    println!("more than a few percent, best case on the read-only gating paths.");
}
