//! Flight-recorder overhead gate: what per-request tracing costs on the
//! speculating hot path.
//!
//! An observability layer that taxes the fast path defeats its purpose —
//! the whole point of PR 4's allocation-free discipline was to keep
//! `FastLock`→section→`FastUnlock` cheap, and the flight recorder rides
//! exactly that path. This binary pins the tax down against the same
//! speculating baseline `hotpath` uses (gocc mode, `procs = 8`, one
//! uncontended write-style section per request), emulating the server's
//! per-request pattern around each section:
//!
//! - `baseline` — no tracing anywhere: the recorder stays unconfigured
//!   and the loop never touches the trace API;
//! - `disabled` — the full request plumbing (`begin_request`, the
//!   [`gocc_telemetry::trace::tracing_active`] gate in every layer) with
//!   sampling off: what *every* deployment pays;
//! - `sampled` — 1-in-64 sampling, the default `goccd` runs with;
//! - `full` — every request traced (`N = 1`): the worst case, reported
//!   but not gated.
//!
//! Configurations are measured in interleaved repeats (round-robin, so
//! drift hits all of them equally) and scored min-of-K — the floor is the
//! honest cost, everything above it is scheduler noise. Gates:
//! `disabled` ≤ 5% over baseline, `sampled` ≤ 10%, overridable via
//! `TRACE_GATE_DISABLED_PCT` / `TRACE_GATE_SAMPLED_PCT`. The table and
//! each verdict go to stdout and nothing is written to disk; exit 4 on a
//! violated gate, 1 on a bad command line or override.
//!
//! The thresholds carry deliberate margin over the measured cost. The
//! sampled configuration's true tax is the full-trace cost amortized
//! over the sampling period (~320 ns of span pushes every 64th request
//! ≈ 5 ns/op) plus the per-request sampling decision — about 4–5% of a
//! ~140 ns section; the disabled path's is one relaxed load and a
//! branch, well under 1%. But per-process floors spread a further
//! ±3–4% run to run (ASLR / arena layout shift the path by whole
//! nanoseconds), so a gate set at the true cost flakes on honest runs.
//! The margined gates still trip instantly on a real regression — any
//! accidental work on the disabled path (an allocation, an un-gated
//! push) lands near the `full` figure, +220%.

use std::time::Duration;

use gocc_bench::warm_measure;
use gocc_optilock::{call_site, GoccRuntime, LockRef};
use gocc_telemetry::trace;
use gocc_txds::TxCounter;
use gocc_workloads::{Engine, Mode};

/// Interleaved repeats per configuration; each row's score is its min.
const REPEATS: usize = 5;

#[derive(Clone, Copy, PartialEq)]
enum Config {
    Baseline,
    Disabled,
    Sampled,
    Full,
}

impl Config {
    fn name(self) -> &'static str {
        match self {
            Config::Baseline => "baseline",
            Config::Disabled => "disabled",
            Config::Sampled => "sampled",
            Config::Full => "full",
        }
    }

    /// The recorder's `sample_n` for this configuration.
    fn sample_n(self) -> u64 {
        match self {
            Config::Baseline | Config::Disabled => 0,
            Config::Sampled => 64,
            Config::Full => 1,
        }
    }
}

/// One measurement window of the per-request pattern under `config`.
fn measure(config: Config, window: Duration) -> f64 {
    let rt = GoccRuntime::new_default();
    rt.tracer().configure(config.sample_n(), 0x7AC3_5EED);
    let engine = Engine::new(&rt, Mode::Gocc);
    let m = gocc_optilock::ElidableMutex::new();
    let c = TxCounter::new(0);
    let site = call_site!();
    let ns = if config == Config::Baseline {
        // No trace API anywhere: the cost every pre-tracing build paid.
        warm_measure(1, window, |_w, _i| {
            engine.section(site, LockRef::Mutex(&m), |tx| c.add(tx, 1).map(|_| ()));
        })
    } else {
        // The server's per-request shape: one sampling decision, the id
        // pinned for the section, cleared after — exactly what
        // `conn::process_frames` does around a request.
        warm_measure(1, window, |_w, _i| {
            let id = rt.tracer().begin_request();
            if id != 0 {
                trace::set_current(id);
            }
            engine.section(site, LockRef::Mutex(&m), |tx| c.add(tx, 1).map(|_| ()));
            if id != 0 {
                trace::clear_current();
            }
        })
    };
    rt.tracer().configure(0, 0);
    ns
}

/// A bad command line or override is a harness error: exit 1, never
/// the gate's 4.
fn usage_error(msg: &str) -> ! {
    eprintln!("trace_overhead: {msg}\nusage: trace_overhead [--window-ms N]");
    std::process::exit(1);
}

fn gate_from_env(var: &str, default: f64) -> f64 {
    match std::env::var(var) {
        Ok(v) => v
            .parse()
            .unwrap_or_else(|e| usage_error(&format!("{var} must be a float: {e}"))),
        Err(_) => default,
    }
}

fn main() {
    let mut window = Duration::from_millis(120);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--window-ms" => match args.next().and_then(|v| v.parse().ok()) {
                Some(ms) => window = Duration::from_millis(ms),
                None => usage_error("--window-ms needs a number"),
            },
            other => usage_error(&format!("unknown flag: {other}")),
        }
    }
    let gate_disabled = gate_from_env("TRACE_GATE_DISABLED_PCT", 5.0);
    let gate_sampled = gate_from_env("TRACE_GATE_SAMPLED_PCT", 10.0);

    let prev = gocc_gosync::set_procs(8);
    const CONFIGS: [Config; 4] = [
        Config::Baseline,
        Config::Disabled,
        Config::Sampled,
        Config::Full,
    ];
    // Round-robin over configurations so thermal / scheduler drift is
    // spread across all of them instead of biasing whichever ran last.
    let mut best = [f64::INFINITY; 4];
    for _ in 0..REPEATS {
        for (i, &config) in CONFIGS.iter().enumerate() {
            best[i] = best[i].min(measure(config, window));
        }
    }
    gocc_gosync::set_procs(prev);

    let baseline = best[0];
    let overhead_pct = |ns: f64| ((ns - baseline) / baseline * 100.0).max(0.0);

    println!("== trace_overhead: flight-recorder cost on the speculating hot path ==");
    println!("{:<10} {:>12} {:>12}", "config", "ns/op", "overhead");
    for (i, &config) in CONFIGS.iter().enumerate() {
        println!(
            "{:<10} {:>12.1} {:>11.2}%",
            config.name(),
            best[i],
            overhead_pct(best[i]),
        );
    }

    let mut failed = false;
    for (config, pct, gate) in [
        (Config::Disabled, overhead_pct(best[1]), gate_disabled),
        (Config::Sampled, overhead_pct(best[2]), gate_sampled),
    ] {
        if pct > gate {
            eprintln!(
                "GATE FAILED: {} overhead {pct:.2}% exceeds gate {gate:.2}%",
                config.name()
            );
            failed = true;
        } else {
            println!("gate ok: {} {pct:.2}% <= {gate:.2}%", config.name());
        }
    }
    if failed {
        std::process::exit(4);
    }
}
