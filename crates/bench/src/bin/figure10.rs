//! Figure 10: perceptron effectiveness on the Tally benchmarks.
//!
//! Compares GOCC with the perceptron against GOCC-NP ("No Perceptron":
//! every section always attempts HTM). On HTM-friendly benchmarks the two
//! should tie; on the abort-heavy allocation benchmarks
//! (`CounterAllocation`, `SanitizedCounterAllocation`) NP pays the full
//! abort-and-retry tax on every call while the perceptron "quickly learns
//! to move away from HTM and keeps using the slowpath", eliminating the
//! loss.

use std::time::Duration;

use gocc_bench::{modelled, run_parallel, stats_fields, write_artifact, CORE_COUNTS};
use gocc_optilock::{GoccConfig, GoccRuntime, PerceptronSnapshot};
use gocc_telemetry::JsonWriter;
use gocc_workloads::tally::Scope;
use gocc_workloads::{Engine, Mode};

const PRELOADED: usize = 512;
const WINDOW: Duration = Duration::from_millis(200);

struct Bench {
    name: &'static str,
    op: fn(&Engine<'_>, &Scope, usize, u64),
}

fn histogram_existing(engine: &Engine<'_>, scope: &Scope, worker: usize, i: u64) {
    let name = Scope::name_hash((worker * 131 + i as usize) % PRELOADED);
    let _ = scope.histogram_exists(engine, name);
}

fn scope_reporting1(engine: &Engine<'_>, scope: &Scope, _worker: usize, _i: u64) {
    let _ = scope.scope_reporting(engine, 1);
}

fn counter_allocation(engine: &Engine<'_>, scope: &Scope, worker: usize, i: u64) {
    let name = Scope::name_hash(1_000_000 + worker * 10_000_000 + i as usize);
    let _ = scope.counter_allocation(engine, name);
}

fn sanitized_allocation(engine: &Engine<'_>, scope: &Scope, worker: usize, i: u64) {
    let name = format!("svc.host-{worker}.metric/{i}");
    let _ = scope.sanitized_counter_allocation(engine, &name);
}

fn main() {
    // Default 8 procs for the whole sweep: this figure contrasts the
    // perceptron's decisions against always-speculate, and the §5.4.2
    // bypass at procs=1 would override both sides with the lock path.
    println!("== Figure 10: Tally with vs without the perceptron ==");
    println!(
        "{:<26} | cores: NP-ns / P-ns  perceptron-gain (positive = perceptron rescues)",
        "benchmark"
    );
    println!("{}", "-".repeat(118));

    let benches = [
        Bench {
            name: "HistogramExisting",
            op: histogram_existing,
        },
        Bench {
            name: "ScopeReporting1",
            op: scope_reporting1,
        },
        Bench {
            name: "CounterAllocation",
            op: counter_allocation,
        },
        Bench {
            name: "SanitizedCounterAlloc",
            op: sanitized_allocation,
        },
    ];

    let mut w = JsonWriter::new();
    w.begin_object().field_str("figure", "figure10");
    w.key("core_counts").begin_array();
    for &c in &CORE_COUNTS {
        w.u64(c as u64);
    }
    w.end_array();
    w.key("benchmarks").begin_array();

    for b in &benches {
        print!("{:<26}", b.name);
        w.begin_object().field_str("name", b.name);
        w.key("points").begin_array();
        for &cores in &CORE_COUNTS {
            let mut ns = [0.0f64; 2];
            // Stats + perceptron introspection from the gated (P) run.
            let mut gated: Option<(gocc_htm::StatsSnapshot, _, PerceptronSnapshot)> = None;
            for (idx, config) in [GoccConfig::no_perceptron(), GoccConfig::standard()]
                .into_iter()
                .enumerate()
            {
                let rt = GoccRuntime::new(modelled(config, cores));
                let scope = Scope::new(rt.htm(), PRELOADED);
                let engine = Engine::new(&rt, Mode::Gocc);
                run_parallel(cores, WINDOW / 4, |w, i| (b.op)(&engine, &scope, w, i));
                ns[idx] = run_parallel(cores, WINDOW, |w, i| (b.op)(&engine, &scope, w, i));
                if idx == 1 {
                    gated = Some((
                        rt.htm().stats().snapshot(),
                        rt.stats().snapshot(),
                        rt.perceptron().snapshot(),
                    ));
                }
            }
            let gain = (ns[0] / ns[1] - 1.0) * 100.0;
            print!(
                " | {:>2}c {:>8.1}/{:<8.1} {:>+7.1}%",
                cores, ns[0], ns[1], gain
            );
            let (htm, opti, perc) = gated.expect("gated run measured");
            w.begin_object()
                .field_u64("cores", cores as u64)
                .field_f64("np_ns_per_op", ns[0])
                .field_f64("gocc_ns_per_op", ns[1])
                .field_f64("perceptron_gain_pct", gain);
            stats_fields(&mut w, &htm, &opti);
            w.key("perceptron")
                .begin_object()
                .field_u64("decisions_fast", opti.perceptron_htm)
                .field_u64("decisions_slow", opti.perceptron_slow)
                .field_u64("resets", perc.resets)
                .field_u64(
                    "trained_mutex_cells",
                    PerceptronSnapshot::trained_cells(&perc.mutex_weights) as u64,
                )
                .field_u64(
                    "trained_site_cells",
                    PerceptronSnapshot::trained_cells(&perc.site_weights) as u64,
                )
                .key("mutex_table_bias")
                .i64(PerceptronSnapshot::table_bias(&perc.mutex_weights))
                .key("site_table_bias")
                .i64(PerceptronSnapshot::table_bias(&perc.site_weights))
                .end_object()
                .end_object();
        }
        w.end_array().end_object();
        println!();
    }
    w.end_array().end_object();
    println!();
    println!("NP = always attempt HTM; P = perceptron-gated (the shipped configuration).");
    write_artifact("figure10", &w.finish());
}
