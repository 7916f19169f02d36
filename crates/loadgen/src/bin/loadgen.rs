//! `loadgen` — closed-loop load generator for `goccd`.
//!
//! Two ways to run it:
//!
//! * **Self-hosted sweep** (default): for each worker count in a
//!   power-of-two sweep up to `--workers`, spawn a fresh in-process
//!   `goccd` on an ephemeral loopback port per mode, drive it, and print
//!   one row per point. Nothing is written to disk.
//!
//!   ```console
//!   $ loadgen --mode both --workers 4
//!   ```
//!
//! * **External target** (`--addr 127.0.0.1:PORT`): drive one already
//!   running server at a single worker count — the smoke-test shape used
//!   by `scripts/ci.sh`. `--mode` must match the server's mode (verified
//!   against its STATS document); `--shutdown` sends SHUTDOWN afterwards.
//!
//! Exit status is 1 on any setup failure, a mode mismatch, or a window
//! that completed zero operations, and 4 when `--pipeline-gate` is
//! violated.

use std::process::ExitCode;
use std::time::Duration;

use gocc_loadgen::soak::{self, spawn_node, violation, Flags, SoakResult};
use gocc_loadgen::{
    fetch_stats, fetch_trace, run_point, send_shutdown, sweep_counts, LoadConfig, ModeResult,
    SweepRow,
};
use gocc_server::{mode_name, Mode, ServerConfig};
use gocc_telemetry::JsonValue;

const NAME: &str = "loadgen";

struct Args {
    /// None = both modes.
    mode: Option<Mode>,
    workers: usize,
    addr: Option<String>,
    shutdown: bool,
    /// Drain up to N flight-recorder spans after the window (0 = server
    /// default cap) and print the TRACE document. External targets only.
    trace: Option<u32>,
    /// Depth for external runs; restricts the sweep's depth axis when
    /// given. `None` = depth 1 externally, the [1, 8, 32] axis in sweeps.
    pipeline: Option<usize>,
    /// Minimum ratio of requests per elided section (deepest depth vs
    /// depth 1, at 1 worker) each swept mode must reach, along with half
    /// the depth-proportional ops/sec between the two deepest depths;
    /// violation exits with code 4.
    pipeline_gate: Option<f64>,
    server_workers: usize,
    shards: usize,
    capacity: usize,
    load: LoadConfig,
}

fn parse(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        mode: None,
        workers: 4,
        addr: None,
        shutdown: false,
        trace: None,
        pipeline: None,
        pipeline_gate: None,
        server_workers: 2,
        shards: 4,
        capacity: 1 << 14,
        load: LoadConfig::default(),
    };
    Flags::new(NAME)
        .mode(&mut args.mode)
        .num("--workers", "N", &mut args.workers)
        .opt("--addr", "127.0.0.1:PORT", &mut args.addr)
        .switch("--shutdown", &mut args.shutdown)
        .opt("--trace", "N", &mut args.trace)
        .opt("--pipeline", "N", &mut args.pipeline)
        .opt("--pipeline-gate", "X", &mut args.pipeline_gate)
        .num("--server-workers", "N", &mut args.server_workers)
        .num("--shards", "N", &mut args.shards)
        .num("--capacity", "N", &mut args.capacity)
        .millis("--warmup-ms", &mut args.load.warmup)
        .millis("--window-ms", &mut args.load.window)
        .num("--keyspace", "N", &mut args.load.keyspace)
        .num("--read-frac", "F", &mut args.load.read_frac)
        .num("--zipf", "S", &mut args.load.zipf_s)
        .num("--scan-every", "N", &mut args.load.scan_every)
        .seed(&mut args.load.seed)
        .parse(raw)?;
    if args.workers == 0 || args.pipeline == Some(0) || args.load.keyspace == 0 {
        return Err("--workers, --pipeline and --keyspace must be >= 1".into());
    }
    if args.addr.is_some() && args.mode.is_none() {
        return Err("--addr drives one server with one mode; pick --mode lock or gocc".into());
    }
    if args.trace.is_some() && args.addr.is_none() {
        return Err("--trace drains a live daemon; it needs --addr".into());
    }
    if args.pipeline_gate.is_some() && args.addr.is_some() {
        return Err("--pipeline-gate compares sweep depths; it conflicts with --addr".into());
    }
    Ok(args)
}

/// Extracts the port from a loopback `HOST:PORT` address.
fn loopback_port(addr: &str) -> Result<u16, String> {
    let (host, port) = addr
        .rsplit_once(':')
        .ok_or_else(|| format!("--addr {addr:?} is not HOST:PORT"))?;
    if host != "127.0.0.1" && host != "localhost" {
        return Err(format!("--addr host {host:?} is not loopback"));
    }
    port.parse().map_err(|e| format!("--addr port: {e}"))
}

/// Drives one `(mode, workers)` point against a live server at `port` and
/// returns it paired with the server's post-window stats.
fn measure(
    port: u16,
    expect_mode: Mode,
    workers: usize,
    load: &LoadConfig,
) -> Result<ModeResult, String> {
    let point = run_point(port, workers, load).map_err(|e| format!("load loop: {e}"))?;
    if point.ops == 0 {
        return Err(format!(
            "measurement window completed zero operations \
             ({} client errors)",
            point.client_errors
        ));
    }
    let stats = fetch_stats(port)?;
    match stats.mode() {
        Some(m) if m == mode_name(expect_mode) => {}
        other => {
            return Err(format!(
                "server reports mode {other:?}, expected {:?}",
                mode_name(expect_mode)
            ))
        }
    }
    Ok(ModeResult {
        point,
        stats_raw: stats.raw,
    })
}

fn print_row(mode: Mode, depth: usize, m: &ModeResult) {
    let p = &m.point;
    println!(
        "{:>7}  {:>4}  {:<4}  {:>9}  {:>11.0}  {:>9}  {:>9}  {:>5}",
        p.workers,
        depth,
        mode_name(mode),
        p.ops,
        p.ops_per_sec(),
        p.latency.quantile(0.5),
        p.latency.quantile(0.99),
        p.client_errors + p.server_errors,
    );
    if p.client_errors > 0 {
        eprintln!(
            "warning: {} client-side errors at {} workers ({})",
            p.client_errors,
            p.workers,
            mode_name(mode)
        );
    }
}

fn run(args: &Args) -> SoakResult<()> {
    let modes = soak::modes(args.mode);
    let depths: Vec<usize> = match args.pipeline {
        Some(d) => vec![d],
        None if args.addr.is_some() => vec![1],
        None => vec![1, 8, 32],
    };
    println!(
        "{:>7}  {:>4}  {:<4}  {:>9}  {:>11}  {:>9}  {:>9}  {:>5}",
        "workers", "pipe", "mode", "ops", "ops/s", "p50(ns)", "p99(ns)", "errs"
    );

    let mut rows = Vec::new();
    if let Some(addr) = &args.addr {
        // External server: one point, no sweep, caller owns the lifecycle.
        let port = loopback_port(addr)?;
        let mode = args.mode.expect("checked in parse_args");
        let mut load = args.load.clone();
        load.pipeline = depths[0];
        print_row(mode, depths[0], &measure(port, mode, args.workers, &load)?);
        if let Some(max) = args.trace {
            // Drained before SHUTDOWN: TRACE against a dead server is
            // just a connection error.
            println!("{}", fetch_trace(port, max)?.raw);
        }
        if args.shutdown {
            send_shutdown(port)?;
        }
    } else {
        for wc in sweep_counts(args.workers) {
            for &depth in &depths {
                let mut row = SweepRow {
                    workers: wc,
                    pipeline: depth,
                    ..SweepRow::default()
                };
                let mut load = args.load.clone();
                load.pipeline = depth;
                for &mode in &modes {
                    // A fresh server per point: no cross-point warmup
                    // bleed, and each mode's telemetry covers exactly one
                    // window.
                    let config = ServerConfig {
                        mode,
                        port: 0,
                        workers: args.server_workers,
                        shards: args.shards,
                        capacity_per_shard: args.capacity,
                        write_timeout: Duration::from_secs(5),
                        ..ServerConfig::default()
                    };
                    let handle = spawn_node("goccd", config)?;
                    let result = measure(handle.port(), mode, wc, &load);
                    let shutdown = send_shutdown(handle.port());
                    let summary = handle.join();
                    let m = result?;
                    shutdown?;
                    if summary.slow_client_drops > 0 {
                        eprintln!(
                            "warning: server dropped {} slow clients",
                            summary.slow_client_drops
                        );
                    }
                    print_row(mode, depth, &m);
                    match mode {
                        Mode::Lock => row.lock = Some(m),
                        Mode::Gocc => row.gocc = Some(m),
                    }
                }
                if let Some(s) = row.speedup_pct() {
                    println!(
                        "{:>7}  {:>4}  gocc vs lock: {s:+.1}%",
                        row.workers, row.pipeline
                    );
                }
                rows.push(row);
            }
        }
    }

    match args.pipeline_gate {
        Some(min_ratio) => pipeline_gate(&rows, &depths, min_ratio),
        None => Ok(()),
    }
}

/// Mean requests per executed shard-group (one elided section each),
/// from the STATS document captured after a point's window.
fn requests_per_section(m: &ModeResult) -> SoakResult<f64> {
    let doc = JsonValue::parse(&m.stats_raw).map_err(|e| format!("STATS JSON: {e}"))?;
    let mean = doc
        .get("batch")
        .and_then(|b| b.get("requests_per_batch"))
        .and_then(|r| r.get("mean"))
        .and_then(JsonValue::as_f64)
        .ok_or("STATS lacks batch.requests_per_batch.mean")?;
    Ok(mean)
}

/// Checks the pipelining payoff at 1 worker, for every mode that was
/// swept. A miss is a violation (exit 4), distinguishable from a setup
/// failure. Depth 1 is no throughput reference — a lone request wakes
/// its worker, so depth-1 ops/sec is the socket path's and about equal
/// to depth 32's whether or not the server batches — hence two checks:
///
/// * batching, by the server's own count: the deepest depth must put at
///   least `min_ratio`× as many requests behind each elided section as
///   depth 1 does (`batch.requests_per_batch` in STATS; every depth-1
///   batch is a batch of one);
/// * throughput: a pipelined window is served per worker pass, so ops/sec
///   grows with the depth between the two pipelined depths (×3.8–4.0
///   measured from depth 8 to 32). The deepest depth must keep at least
///   half of that proportion, or it has stopped amortizing the pass.
fn pipeline_gate(rows: &[SweepRow], depths: &[usize], min_ratio: f64) -> SoakResult<()> {
    let deepest = *depths.iter().max().expect("at least one depth");
    let Some(&mid) = depths.iter().filter(|&&d| 1 < d && d < deepest).max() else {
        return Err("--pipeline-gate needs a sweep covering depth 1 and two deeper depths".into());
    };
    let min_scaling = 0.5 * deepest as f64 / mid as f64;
    let point = |depth: usize| {
        rows.iter()
            .find(|r| r.workers == 1 && r.pipeline == depth)
            .ok_or_else(|| format!("gate point (1 worker, depth {depth}) missing from sweep"))
    };
    let (base, middle, deep) = (point(1)?, point(mid)?, point(deepest)?);
    let mut violated = false;
    for (name, pick) in [
        (
            "lock",
            &(|r: &SweepRow| r.lock.clone()) as &dyn Fn(&SweepRow) -> Option<ModeResult>,
        ),
        ("gocc", &|r: &SweepRow| r.gocc.clone()),
    ] {
        let (Some(b), Some(m), Some(d)) = (pick(base), pick(middle), pick(deep)) else {
            continue;
        };
        let (per_base, per_deep) = (requests_per_section(&b)?, requests_per_section(&d)?);
        let ratio = per_deep / per_base.max(1e-9);
        let scaling = d.point.ops_per_sec() / m.point.ops_per_sec().max(1e-9);
        let verdict = |ok: bool| if ok { "ok" } else { "VIOLATION" };
        println!(
            "pipeline gate [{name}]: requests per section, depth {deepest} vs 1 at 1 worker: \
             {per_deep:.2} vs {per_base:.2} = {ratio:.1}x (need >= {min_ratio:.1}x) {}",
            verdict(ratio >= min_ratio)
        );
        println!(
            "pipeline gate [{name}]: ops/sec, depth {deepest} vs {mid} at 1 worker: \
             {scaling:.1}x (need >= {min_scaling:.1}x) {}",
            verdict(scaling >= min_scaling)
        );
        violated |= ratio < min_ratio || scaling < min_scaling;
    }
    if violated {
        return Err(violation(format!(
            "pipelining amortization below {min_ratio:.1}x requests per section \
             or {min_scaling:.1}x ops/sec"
        )));
    }
    Ok(())
}

fn main() -> ExitCode {
    soak::main(NAME, parse, run)
}
