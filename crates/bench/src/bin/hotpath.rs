//! Hot-path micro-benchmark: what one *uncontended* critical section
//! costs, in both modes.
//!
//! GOCC's viability rests on the fast path being cheap enough to try
//! (§5.4, §6): if `FastLock`→section→`FastUnlock` costs much more than an
//! uncontended mutex, every figure's 1-core column pays for it. This
//! binary pins that cost down with a single worker and no contention,
//! across three section shapes:
//!
//! - `empty`  — lock/unlock only, no transactional work;
//! - `read1`  — one `TxVar` read;
//! - `write1` — one `TxVar` write.
//!
//! Each shape is measured three ways: the pessimistic baseline
//! (`Mode::Lock`), gocc with speculation engaged (`procs = 8`, so the
//! single-thread bypass stays out of the way and the perceptron/HTM path
//! runs), and gocc at `procs = 1` where the §5.4.2 single-OS-thread
//! bypass should convert every section into a plain lock acquisition.
//!
//! The simulated-coherence model stays at 1 core: this benchmark is about
//! constant overhead, not scaling.
//!
//! Flags: `--window-ms N` shrinks the measurement window (CI uses this),
//! `--gate RATIO` exits 4 if any section's speculating-gocc cost exceeds
//! `RATIO ×` the lock baseline — a loose order-of-magnitude regression
//! gate, not a benchmark assertion. A bad command line exits 1. The table
//! and the verdict go to stdout; nothing is written to disk.

use std::time::Duration;

use gocc_bench::warm_measure;
use gocc_optilock::{call_site, GoccRuntime, LockRef};
use gocc_txds::TxCounter;
use gocc_workloads::{Engine, Mode};

#[derive(Clone, Copy)]
enum Shape {
    Empty,
    Read1,
    Write1,
}

impl Shape {
    fn name(self) -> &'static str {
        match self {
            Shape::Empty => "empty",
            Shape::Read1 => "read1",
            Shape::Write1 => "write1",
        }
    }
}

/// Nanoseconds per section of `shape` in `mode` at `procs` modelled procs.
fn measure(shape: Shape, mode: Mode, procs: usize, window: Duration) -> f64 {
    let prev = gocc_gosync::set_procs(procs);
    let rt = GoccRuntime::new_default();
    let engine = Engine::new(&rt, mode);
    let m = gocc_optilock::ElidableMutex::new();
    let c = TxCounter::new(0);
    let ns = warm_measure(1, window, |_w, _i| {
        engine.section(call_site!(), LockRef::Mutex(&m), |tx| match shape {
            Shape::Empty => Ok(()),
            Shape::Read1 => c.get(tx).map(|_| ()),
            Shape::Write1 => c.add(tx, 1).map(|_| ()),
        });
    });
    gocc_gosync::set_procs(prev);
    ns
}

/// A bad command line is a harness error: exit 1, never the gate's 4.
fn usage_error(msg: &str) -> ! {
    eprintln!("hotpath: {msg}\nusage: hotpath [--window-ms N] [--gate RATIO]");
    std::process::exit(1);
}

fn value<T: std::str::FromStr>(flag: &str, v: Option<String>) -> T {
    v.and_then(|v| v.parse().ok())
        .unwrap_or_else(|| usage_error(&format!("{flag} needs a number")))
}

fn main() {
    let mut window = gocc_bench::DEFAULT_WINDOW;
    let mut gate: Option<f64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--window-ms" => window = Duration::from_millis(value(&arg, args.next())),
            "--gate" => gate = Some(value(&arg, args.next())),
            other => usage_error(&format!("unknown flag: {other}")),
        }
    }

    println!("== hotpath: uncontended single-worker section cost ==");
    println!(
        "{:<8} {:>12} {:>14} {:>12} {:>16} {:>14}",
        "section", "lock ns/op", "gocc ns/op", "gocc/lock", "bypass ns/op", "bypass/lock"
    );

    let mut worst = 0.0f64;
    for shape in [Shape::Empty, Shape::Read1, Shape::Write1] {
        let lock = measure(shape, Mode::Lock, 8, window);
        let spec = measure(shape, Mode::Gocc, 8, window);
        let bypass = measure(shape, Mode::Gocc, 1, window);
        println!(
            "{:<8} {:>12.1} {:>14.1} {:>11.2}x {:>16.1} {:>13.2}x",
            shape.name(),
            lock,
            spec,
            spec / lock,
            bypass,
            bypass / lock,
        );
        worst = worst.max(spec / lock);
    }
    println!("worst speculating gocc/lock ratio: {worst:.2}x");

    if let Some(gate) = gate {
        if worst > gate {
            eprintln!("GATE FAILED: worst gocc/lock ratio {worst:.2}x exceeds gate {gate:.2}x");
            std::process::exit(4);
        }
        println!("gate ok: {worst:.2}x <= {gate:.2}x");
    }
}
