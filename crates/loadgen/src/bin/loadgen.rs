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
    Schedule, SweepRow,
};
use gocc_server::{mode_name, Mode, ServerConfig};
use gocc_telemetry::JsonValue;

const NAME: &str = "loadgen";

/// `--pipeline-gate`: the depths it sweeps at 1 worker, each this many
/// times, interleaved.
const GATE_DEPTHS: [usize; 3] = [1, 8, 32];
const GATE_ROUNDS: usize = 3;
/// Least requests per elided section at depth 32 over depth 1 (the
/// server's counts read 8.0 against 1.0 with four shards).
const MIN_SECTION_RATIO: f64 = 5.0;
/// Least ops/s at depth 32 over depth 8, each its best of
/// [`GATE_ROUNDS`]: half the depth ratio (read 3.8–4.0).
const MIN_DEEP_SCALING: f64 = 2.0;
/// Most idle blocks per request at depth 1 on one connection. A lone
/// request wakes its worker once (read 0.93–1.0); a worker that blocks
/// twice per request reads 2.
const MAX_BLOCKS_PER_REQUEST: f64 = 1.5;

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
    /// Judge the pipelining payoff at 1 worker ([`pipeline_verdict`]);
    /// a violation exits with code 4.
    pipeline_gate: bool,
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
        pipeline_gate: false,
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
        .switch("--pipeline-gate", &mut args.pipeline_gate)
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
    if args.pipeline_gate && (args.addr.is_some() || args.pipeline.is_some()) {
        return Err(
            "--pipeline-gate sweeps depths 1, 8 and 32; it conflicts with --addr and --pipeline"
                .into(),
        );
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

/// Drives one point, `workers` connections with a window of `depth`,
/// against a live server at `port` and returns it paired with the
/// server's post-window stats.
fn measure(
    port: u16,
    expect_mode: Mode,
    workers: usize,
    depth: usize,
    load: &LoadConfig,
) -> Result<ModeResult, String> {
    let load = LoadConfig {
        conns: workers,
        schedule: Schedule::Window(depth),
        ..load.clone()
    };
    let point = run_point(port, &load).map_err(|e| format!("load loop: {e}"))?;
    if point.counts.completed == 0 {
        return Err(format!(
            "measurement window completed zero operations \
             ({} client errors)",
            point.counts.client_errors
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
    let (p, c) = (&m.point, &m.point.counts);
    println!(
        "{:>7}  {:>4}  {:<4}  {:>9}  {:>11.0}  {:>9}  {:>9}  {:>5}",
        p.conns,
        depth,
        mode_name(mode),
        c.completed,
        p.ops_per_sec(),
        p.latency.quantile(0.5),
        p.latency.quantile(0.99),
        c.client_errors + c.server_errors,
    );
    if c.client_errors > 0 {
        eprintln!(
            "warning: {} client-side errors at {} workers ({})",
            c.client_errors,
            p.conns,
            mode_name(mode)
        );
    }
}

fn run(args: &Args) -> SoakResult<()> {
    let modes = soak::modes(args.mode);
    let depths: Vec<usize> = match args.pipeline {
        Some(d) => vec![d],
        None if args.addr.is_some() => vec![1],
        None => GATE_DEPTHS.to_vec(),
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
        let m = measure(port, mode, args.workers, depths[0], &args.load)?;
        print_row(mode, depths[0], &m);
        if let Some(max) = args.trace {
            // Drained before SHUTDOWN: TRACE against a dead server is
            // just a connection error.
            println!("{}", fetch_trace(port, max)?.raw);
        }
        if args.shutdown {
            send_shutdown(port)?;
        }
    } else {
        let rounds = if args.pipeline_gate { GATE_ROUNDS } else { 1 };
        for wc in sweep_counts(args.workers) {
            for &depth in depths.iter().cycle().take(rounds * depths.len()) {
                let mut row = SweepRow {
                    workers: wc,
                    pipeline: depth,
                    ..SweepRow::default()
                };
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
                    let result = measure(handle.port(), mode, wc, depth, &args.load);
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

    if !args.pipeline_gate {
        return Ok(());
    }
    let (lines, violated) = pipeline_verdict(&rows)?;
    println!("{}", lines.join("\n"));
    if violated {
        return Err(violation("pipelining amortization below the bar"));
    }
    Ok(())
}

/// `(requests per elided section, idle blocks per request executed)` from
/// a point's STATS; the blocks are the busiest worker's.
fn point_counts(m: &ModeResult) -> Result<(f64, f64), String> {
    let doc = JsonValue::parse(&m.stats_raw).map_err(|e| format!("STATS JSON: {e}"))?;
    let num = |v: Option<&JsonValue>, key: &str| {
        v.and_then(|v| v.get(key))
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("STATS lacks {key}"))
    };
    let per_section = num(
        doc.get("batch").and_then(|b| b.get("requests_per_batch")),
        "mean",
    )?;
    let workers = doc.get("per_worker").and_then(JsonValue::as_array);
    let mut busiest = (0.0, 0.0);
    for w in workers.ok_or("STATS lacks per_worker")? {
        let executed = num(Some(w), "executed")?;
        if executed >= busiest.0 {
            busiest = (executed, num(Some(w), "idle_blocks")?);
        }
    }
    Ok((per_section, busiest.1 / busiest.0.max(1.0)))
}

/// The pipelining payoff at 1 worker, for every mode the rows hold: one
/// line per check, and whether any was violated. `Err` = the rows cannot
/// be judged (a gate depth or a STATS key missing). Counts are judged at
/// their worst point, throughput at its best:
///
/// * batching, by the server's own count: depth 32 must put at least
///   [`MIN_SECTION_RATIO`]× as many requests behind each elided section
///   as depth 1 does (`batch.requests_per_batch`; every depth-1 batch is
///   a batch of one);
/// * throughput: a pipelined window is served per worker pass, so ops/s
///   grows with the depth from 8 to 32, and depth 32 must keep at least
///   [`MIN_DEEP_SCALING`]× depth 8's. Depth 1 is no throughput reference:
///   a lone request wakes its worker, so its ops/s is the socket path's,
///   bimodal on a shared box;
/// * the depth-1 wake-up: on one connection, the busiest worker blocks
///   at most [`MAX_BLOCKS_PER_REQUEST`] times per request it executes.
fn pipeline_verdict(rows: &[SweepRow]) -> Result<(Vec<String>, bool), String> {
    type Pick = fn(&SweepRow) -> Option<&ModeResult>;
    let modes: [(&str, Pick); 2] = [("lock", |r| r.lock.as_ref()), ("gocc", |r| r.gocc.as_ref())];
    let [base, mid, deep] = GATE_DEPTHS;
    let (mut lines, mut violated) = (Vec::new(), false);
    for (name, pick) in modes {
        let at = |depth| -> Vec<&ModeResult> {
            let points = rows
                .iter()
                .filter(|r| r.workers == 1 && r.pipeline == depth);
            points.filter_map(pick).collect()
        };
        let (base_ms, mid_ms, deep_ms) = (at(base), at(mid), at(deep));
        match (base_ms.is_empty(), mid_ms.is_empty(), deep_ms.is_empty()) {
            (true, true, true) => continue, // mode not swept
            (false, false, false) => {}
            _ => {
                return Err(format!(
                    "gate points (1 worker, depths {GATE_DEPTHS:?}) missing"
                ))
            }
        }
        let counts = |ms: &[&ModeResult]| {
            ms.iter()
                .map(|&m| point_counts(m))
                .collect::<Result<Vec<_>, _>>()
        };
        let best_ops =
            |ms: &[&ModeResult]| ms.iter().map(|m| m.point.ops_per_sec()).fold(0.0, f64::max);
        let (base_c, deep_c) = (counts(&base_ms)?, counts(&deep_ms)?);
        let per_base = base_c.iter().map(|c| c.0).fold(0.0, f64::max);
        let per_deep = deep_c.iter().map(|c| c.0).fold(f64::INFINITY, f64::min);
        let blocks = base_c.iter().map(|c| c.1).fold(0.0, f64::max);
        let ratio = per_deep / per_base.max(1e-9);
        let scaling = best_ops(&deep_ms) / best_ops(&mid_ms).max(1e-9);
        for (ok, what) in [
            (
                ratio >= MIN_SECTION_RATIO,
                format!(
                    "requests per section, depth {deep} vs {base}: {per_deep:.2} vs \
                     {per_base:.2} = {ratio:.1}x (need >= {MIN_SECTION_RATIO:.1}x)"
                ),
            ),
            (
                scaling >= MIN_DEEP_SCALING,
                format!(
                    "best ops/s, depth {deep} vs {mid}: {scaling:.1}x \
                     (need >= {MIN_DEEP_SCALING:.1}x)"
                ),
            ),
            (
                blocks <= MAX_BLOCKS_PER_REQUEST,
                format!(
                    "idle blocks per request, depth {base}: {blocks:.3} \
                     (need <= {MAX_BLOCKS_PER_REQUEST:.1})"
                ),
            ),
        ] {
            let verdict = if ok { "ok" } else { "VIOLATION" };
            lines.push(format!(
                "pipeline gate [{name}] at 1 worker: {what} {verdict}"
            ));
            violated |= !ok;
        }
    }
    Ok((lines, violated))
}

fn main() -> ExitCode {
    soak::main(NAME, parse, run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gocc_loadgen::{Counts, PointResult};

    /// A 1-worker row at `depth`, both modes alike: ops/s, requests per
    /// section and the busiest worker's idle blocks per request.
    fn row(depth: usize, ops: u64, per_section: f64, blocks_per_request: u64) -> SweepRow {
        let blocks = blocks_per_request * 10_000;
        let point = PointResult {
            conns: 1,
            counts: Counts {
                completed: ops,
                ..Counts::default()
            },
            latency: Default::default(),
            elapsed: Duration::from_secs(1),
        };
        let stats_raw = format!(
            r#"{{"batch":{{"requests_per_batch":{{"mean":{per_section}}}}},"per_worker":
            [{{"executed":10000,"idle_blocks":{blocks}}},{{"executed":0,"idle_blocks":1}}]}}"#
        );
        let m = ModeResult { point, stats_raw };
        SweepRow {
            workers: 1,
            pipeline: depth,
            lock: Some(m.clone()),
            gocc: Some(m),
        }
    }

    /// One round of depths 1, 8 and 32 at 40 k and 160 k ops/s deep.
    fn sweep(blocks_per_request_at_1: u64, per_section_at_32: f64) -> Vec<SweepRow> {
        vec![
            row(1, 100_000, 1.0, blocks_per_request_at_1),
            row(8, 40_000, 8.0, 0),
            row(32, 160_000, per_section_at_32, 0),
        ]
    }

    #[test]
    fn the_verdict_judges_synthetic_sweeps() {
        let violated = |rows: &[SweepRow]| pipeline_verdict(rows).expect("rows can be judged").1;
        assert!(
            !violated(&sweep(1, 8.0)),
            "8.0 against 1.0, one block a request"
        );
        assert!(
            violated(&sweep(1, 1.0)),
            "depth 32 at 1.0 requests per section"
        );
        assert!(violated(&sweep(2, 8.0)), "two blocks per depth-1 request");
        // Throughput compares the best round of each depth.
        let mut rows = sweep(1, 8.0);
        rows.push(row(32, 60_000, 8.0, 0));
        assert!(!violated(&rows), "one slow depth-32 round");
        rows.swap_remove(2);
        assert!(violated(&rows), "60 k against 40 k");
        assert!(pipeline_verdict(&rows[..2]).is_err(), "no depth-32 point");
    }
}
