//! §2's defer observation: `defer Unlock()` lengthens critical sections.
//!
//! The paper's motivating synthetic benchmark shows performance
//! degradation when the unlock is deferred to the function exit, because
//! everything between the last real use of the shared data and the return
//! is needlessly inside the critical section — under HTM, a longer
//! transaction window means more exposure to conflicts; under locks, more
//! serialization.
//!
//! The model: each operation updates one shared counter (the true critical
//! work) and then does "tail work" on private data. The *tight* variant
//! ends the section before the tail work; the *deferred* variant keeps the
//! tail work inside, as `defer m.Unlock()` would.

use std::time::Duration;

use gocc_bench::{modelled, run_parallel, write_artifact, CORE_COUNTS};
use gocc_optilock::{call_site, ElidableMutex, GoccConfig, GoccRuntime, LockRef};
use gocc_telemetry::JsonWriter;
use gocc_txds::TxCounter;
use gocc_workloads::{Engine, Mode};

const WINDOW: Duration = Duration::from_millis(200);
const TAIL_WORK: usize = 64;

fn tail(mut h: u64) -> u64 {
    for _ in 0..TAIL_WORK {
        h = h.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(13);
    }
    h
}

fn measure(mode: Mode, deferred: bool, cores: usize) -> f64 {
    let rt = GoccRuntime::new(modelled(GoccConfig::standard(), cores));
    let engine = Engine::new(&rt, mode);
    let m = ElidableMutex::new();
    let shared = TxCounter::new(0);
    let op = |_w: usize, i: u64| {
        if deferred {
            // `defer m.Unlock()` style: the tail work rides inside.
            engine.section(call_site!(), LockRef::Mutex(&m), |tx| {
                shared.add(tx, 1)?;
                std::hint::black_box(tail(i));
                Ok(())
            });
        } else {
            engine.section(call_site!(), LockRef::Mutex(&m), |tx| shared.add(tx, 1));
            std::hint::black_box(tail(i));
        }
    };
    run_parallel(cores, WINDOW / 4, op);
    run_parallel(cores, WINDOW, op)
}

fn main() {
    // Default 8 procs even for the 1-worker column: the subject is how
    // deferred unlock lengthens *speculative* sections, so the §5.4.2
    // single-thread bypass must not swap them for lock acquisitions.
    println!("== §2 synthetic: deferred unlock lengthens the critical section ==");
    println!(
        "{:<10} {:<10} | cores: tight-ns / deferred-ns   penalty (positive = defer hurts)",
        "mode", ""
    );
    println!("{}", "-".repeat(110));
    let mut w = JsonWriter::new();
    w.begin_object().field_str("figure", "defer_cost");
    w.key("modes").begin_array();
    for mode in [Mode::Lock, Mode::Gocc] {
        print!("{:<21}", format!("{mode:?}"));
        w.begin_object().field_str("mode", &format!("{mode:?}"));
        w.key("points").begin_array();
        for &cores in &CORE_COUNTS {
            let tight = measure(mode, false, cores);
            let deferred = measure(mode, true, cores);
            let penalty = (deferred / tight - 1.0) * 100.0;
            print!(
                " | {:>2}c {:>8.1}/{:<8.1} {:>+7.1}%",
                cores, tight, deferred, penalty
            );
            w.begin_object()
                .field_u64("cores", cores as u64)
                .field_f64("tight_ns_per_op", tight)
                .field_f64("deferred_ns_per_op", deferred)
                .field_f64("defer_penalty_pct", penalty)
                .end_object();
        }
        w.end_array().end_object();
        println!();
    }
    w.end_array().end_object();
    println!();
    println!("76% of the 8000 Unlock() calls in the paper's 21-MLoC industrial scan were");
    println!("deferred — see `corpus_stats` for this repository's corpus analog.");
    write_artifact("defer_cost", &w.finish());
}
