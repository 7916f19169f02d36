//! Runtime-configuration and parameter ablations on `run_parallel`.
//!
//! Replaces the old external-harness ablation bench with a self-contained
//! binary. Part 1 runs four configurations over the same op mix at each
//! core count:
//!
//! - `lock`          — pessimistic baseline (no elision at all)
//! - `gocc`          — the shipped configuration (perceptron-gated HTM)
//! - `gocc-np`       — "No Perceptron": always attempt HTM
//! - `gocc-telemetry`— shipped configuration + per-site telemetry on,
//!   so the artifact quantifies the observability tax directly against
//!   `gocc` (the <5% budget from the telemetry design).
//!
//! The workload mixes a contended shared counter (conflicts scale with
//! cores) with a striped read-mostly probe, so both the abort path and
//! the fast-commit path are exercised.
//!
//! Part 2 reproduces the design-parameter sweeps the paper implies but
//! does not plot: retry budget on a truly-conflicting section, perceptron
//! decay threshold on a hopeless section, and HTM write capacity on a
//! wide-write section.

use std::time::Duration;

use gocc_bench::{modelled, run_parallel, stats_fields, write_artifact, CORE_COUNTS};
use gocc_optilock::{call_site, ElidableMutex, GoccConfig, GoccRuntime, LockRef};
use gocc_telemetry::JsonWriter;
use gocc_txds::TxCounter;
use gocc_workloads::{Engine, Mode};

const WINDOW: Duration = Duration::from_millis(200);
const STRIPES: usize = 64;

struct Config {
    name: &'static str,
    mode: Mode,
    build: fn() -> GoccConfig,
}

fn measure(mode: Mode, config: GoccConfig, cores: usize) -> (f64, GoccRuntime) {
    let rt = GoccRuntime::new(config);
    let engine = Engine::new(&rt, mode);
    let hot = ElidableMutex::new();
    let hot_counter = TxCounter::new(0);
    let stripes: Vec<(ElidableMutex, TxCounter)> = (0..STRIPES)
        .map(|_| (ElidableMutex::new(), TxCounter::new(0)))
        .collect();
    let op = |w: usize, i: u64| {
        if i % 4 == 0 {
            // Contended write: every worker hits the same counter.
            engine.section(call_site!(), LockRef::Mutex(&hot), |tx| {
                hot_counter.add(tx, 1)
            });
        } else {
            // Striped read-mostly probe: mostly conflict-free.
            let (m, c) = &stripes[(w * 17 + i as usize) % STRIPES];
            engine.section(call_site!(), LockRef::Mutex(m), |tx| {
                let v = c.get(tx)?;
                std::hint::black_box(v);
                Ok(())
            });
        }
    };
    run_parallel(cores, WINDOW / 4, op);
    let ns = run_parallel(cores, WINDOW, op);
    (ns, rt)
}

fn main() {
    // Default 8 procs for the whole sweep (unlike the figure sweeps,
    // which set procs per core point): this bench compares speculation
    // *configurations*, and at procs=1 the §5.4.2 bypass would route
    // every gocc variant to the identical slow path, erasing the signal.
    println!("== Ablation: lock / gocc / gocc-np / gocc-telemetry ==");
    println!(
        "{:<16} | per core count: ns/op  (vs-gocc %, positive = slower than gocc)",
        "config"
    );
    println!("{}", "-".repeat(110));

    let configs = [
        Config {
            name: "lock",
            mode: Mode::Lock,
            build: GoccConfig::standard,
        },
        Config {
            name: "gocc",
            mode: Mode::Gocc,
            build: GoccConfig::standard,
        },
        Config {
            name: "gocc-np",
            mode: Mode::Gocc,
            build: GoccConfig::no_perceptron,
        },
        Config {
            name: "gocc-telemetry",
            mode: Mode::Gocc,
            build: GoccConfig::with_telemetry,
        },
    ];

    // Measure everything first so the gocc reference column exists when
    // printing relative numbers.
    let mut ns = vec![[0.0f64; CORE_COUNTS.len()]; configs.len()];
    let mut runs: Vec<Vec<(gocc_htm::StatsSnapshot, gocc_optilock::OptiStatsSnapshot)>> =
        Vec::new();
    for (ci, c) in configs.iter().enumerate() {
        let mut per_core = Vec::new();
        for (ki, &cores) in CORE_COUNTS.iter().enumerate() {
            let (n, rt) = measure(c.mode, modelled((c.build)(), cores), cores);
            ns[ci][ki] = n;
            per_core.push((rt.htm().stats().snapshot(), rt.stats().snapshot()));
        }
        runs.push(per_core);
    }
    let gocc_idx = 1;

    let mut w = JsonWriter::new();
    w.begin_object().field_str("figure", "ablation");
    w.key("core_counts").begin_array();
    for &c in &CORE_COUNTS {
        w.u64(c as u64);
    }
    w.end_array();
    w.key("configs").begin_array();
    for (ci, c) in configs.iter().enumerate() {
        print!("{:<16}", c.name);
        w.begin_object().field_str("name", c.name);
        w.key("points").begin_array();
        for (ki, &cores) in CORE_COUNTS.iter().enumerate() {
            let vs_gocc = (ns[ci][ki] / ns[gocc_idx][ki] - 1.0) * 100.0;
            print!(" | {:>2}c {:>8.1} ({:>+6.1}%)", cores, ns[ci][ki], vs_gocc);
            let (htm, opti) = &runs[ci][ki];
            w.begin_object()
                .field_u64("cores", cores as u64)
                .field_f64("ns_per_op", ns[ci][ki])
                .field_f64("vs_gocc_pct", vs_gocc);
            stats_fields(&mut w, htm, opti);
            w.end_object();
        }
        w.end_array().end_object();
        println!();
    }
    w.end_array();

    // Headline telemetry-overhead number: geomean across core counts of
    // the gocc-telemetry vs gocc ratio.
    let telemetry_idx = 3;
    let mut log_sum = 0.0;
    for ki in 0..CORE_COUNTS.len() {
        log_sum += (ns[telemetry_idx][ki] / ns[gocc_idx][ki]).ln();
    }
    let telemetry_overhead = (log_sum / CORE_COUNTS.len() as f64).exp() * 100.0 - 100.0;
    w.field_f64("telemetry_overhead_pct", telemetry_overhead);

    println!();
    println!("telemetry-on geomean overhead vs shipped config: {telemetry_overhead:+.2}%");

    parameter_sweeps(&mut w);
    w.end_object();
    write_artifact("ablation", &w.finish());
}

/// The design-parameter sweeps the old ablation harness carried: each
/// varies one knob of [`GoccConfig`] on a workload chosen to stress it.
fn parameter_sweeps(w: &mut JsonWriter) {
    const SWEEP_CORES: usize = 4;
    println!();
    println!("-- parameter sweeps ({SWEEP_CORES} workers) --");

    // Retry budget on a truly-conflicting counter: every attempt beyond
    // the first is wasted work, so tiny budgets should win.
    w.key("retry_budget").begin_array();
    for budget in [0u32, 1, 3, 8] {
        let mut config = GoccConfig::no_perceptron();
        config.policy.max_attempts = budget;
        let (ns, _) = measure(Mode::Gocc, config, SWEEP_CORES);
        println!("retry budget {budget:>2}: {ns:>10.1} ns/op");
        w.begin_object()
            .field_u64("max_attempts", u64::from(budget))
            .field_f64("ns_per_op", ns)
            .end_object();
    }
    w.end_array();

    // Decay threshold on the same hopeless section, perceptron on: small
    // thresholds resurrect HTM attempts too eagerly.
    w.key("perceptron_decay").begin_array();
    for decay in [10u32, 100, 1000] {
        let mut config = GoccConfig::standard();
        config.perceptron.decay_threshold = decay;
        let (ns, _) = measure(Mode::Gocc, config, SWEEP_CORES);
        println!("decay {decay:>5}   : {ns:>10.1} ns/op");
        w.begin_object()
            .field_u64("decay_threshold", u64::from(decay))
            .field_f64("ns_per_op", ns)
            .end_object();
    }
    w.end_array();

    // Write capacity on a wide-write section (one op touches ~64 cells):
    // whether the section fits decides capacity-abort rate.
    w.key("write_capacity").begin_array();
    for cap in [16usize, 64, 512] {
        let mut config = GoccConfig::standard();
        config.htm.max_write_lines = cap;
        let ns = measure_wide_writes(config, SWEEP_CORES);
        println!("write cap {cap:>4} : {ns:>10.1} ns/op");
        w.begin_object()
            .field_u64("max_write_lines", cap as u64)
            .field_f64("ns_per_op", ns)
            .end_object();
    }
    w.end_array();
}

fn measure_wide_writes(config: GoccConfig, cores: usize) -> f64 {
    let rt = GoccRuntime::new(modelled(config, cores));
    let engine = Engine::new(&rt, Mode::Gocc);
    let stripes: Vec<(ElidableMutex, Vec<TxCounter>)> = (0..STRIPES)
        .map(|_| {
            (
                ElidableMutex::new(),
                (0..64).map(|_| TxCounter::new(0)).collect(),
            )
        })
        .collect();
    let op = |wk: usize, i: u64| {
        let (m, cells) = &stripes[(wk * 7 + i as usize) % STRIPES];
        engine.section(call_site!(), LockRef::Mutex(m), |tx| {
            for c in cells {
                c.add(tx, 1)?;
            }
            Ok(())
        });
    };
    run_parallel(cores, WINDOW / 4, op);
    run_parallel(cores, WINDOW, op)
}
