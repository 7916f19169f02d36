//! `goccd` — the GOCC cache service daemon.
//!
//! ```console
//! $ goccd --mode gocc --port 0 --workers 2 --shards 4
//! goccd listening on 127.0.0.1:44721 (mode=gocc workers=2 shards=4)
//! LISTENING 44721
//! ```
//!
//! The `LISTENING <port>` line is the machine-readable contract scripts
//! use with `--port 0`. The process exits 0 after a graceful shutdown
//! (wire SHUTDOWN verb), printing the final summary and, with
//! `--stats-out`, the final STATS JSON document.

use std::process::ExitCode;
use std::time::Duration;

use gocc_server::{mode_name, parse_mode, spawn, ServerConfig, SyncPolicy, WalBackend};

use gocc_telemetry::JsonValue;

fn usage() -> String {
    "usage: goccd [--mode lock|gocc] [--port N] [--workers N] [--shards N] \
     [--capacity N] [--write-timeout-ms N] [--drain-timeout-ms N] \
     [--queue-limit N] [--stats-out PATH] [--trace-sample-n N] \
     [--trace-out PATH] [--stats-interval-secs N] \
     [--data-dir PATH] [--wal-sync off|group|always] [--fsync-batch-size N] \
     [--fsync-wait-us N] [--checkpoint-every N] \
     [--wal-fault-seed N --wal-fault-crash P] \
     [--replica-of HOST:PORT] [--repl-accept] [--repl-min-acks N] \
     [--repl-lease-ms N] [--repl-ack-timeout-ms N] \
     [--repl-fault-seed N --repl-fault-rate P] \
     [--repl-auto-promote] [--repl-peer HOST:PORT]... [--repl-suspect-ms N]"
        .to_string()
}

/// Parsed command line: the server config plus goccd-only output knobs.
struct Cli {
    config: ServerConfig,
    stats_out: Option<String>,
    trace_out: Option<String>,
    stats_interval: Option<u64>,
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut config = ServerConfig::default();
    let mut stats_out = None;
    let mut trace_out = None;
    let mut stats_interval = None;
    let mut wal_fault_seed: Option<u64> = None;
    let mut wal_fault_crash: f64 = 0.0;
    let mut repl_fault_seed: Option<u64> = None;
    let mut repl_fault_rate: f64 = 0.0;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--mode" => config.mode = parse_mode(&value("--mode")?)?,
            "--port" => {
                config.port = value("--port")?
                    .parse()
                    .map_err(|e| format!("--port: {e}"))?;
            }
            "--workers" => {
                config.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
                if config.workers == 0 {
                    return Err("--workers must be >= 1".into());
                }
            }
            "--shards" => {
                config.shards = value("--shards")?
                    .parse()
                    .map_err(|e| format!("--shards: {e}"))?;
                if config.shards == 0 {
                    return Err("--shards must be >= 1".into());
                }
            }
            "--capacity" => {
                config.capacity_per_shard = value("--capacity")?
                    .parse()
                    .map_err(|e| format!("--capacity: {e}"))?;
            }
            "--write-timeout-ms" => {
                config.write_timeout = Duration::from_millis(
                    value("--write-timeout-ms")?
                        .parse()
                        .map_err(|e| format!("--write-timeout-ms: {e}"))?,
                );
            }
            "--drain-timeout-ms" => {
                config.drain_timeout = Duration::from_millis(
                    value("--drain-timeout-ms")?
                        .parse()
                        .map_err(|e| format!("--drain-timeout-ms: {e}"))?,
                );
            }
            "--queue-limit" => {
                config.queue_limit = value("--queue-limit")?
                    .parse()
                    .map_err(|e| format!("--queue-limit: {e}"))?;
                if config.queue_limit == 0 {
                    return Err("--queue-limit must be >= 1".into());
                }
            }
            "--stats-out" => stats_out = Some(value("--stats-out")?),
            "--data-dir" => {
                config.data_dir = Some(std::path::PathBuf::from(value("--data-dir")?));
            }
            "--wal-sync" => {
                let v = value("--wal-sync")?;
                config.wal.sync = SyncPolicy::parse(&v).ok_or_else(|| {
                    format!("--wal-sync: unknown policy {v:?} (off|group|always)")
                })?;
            }
            "--fsync-batch-size" => {
                config.wal.fsync_batch_size = value("--fsync-batch-size")?
                    .parse()
                    .map_err(|e| format!("--fsync-batch-size: {e}"))?;
                if config.wal.fsync_batch_size == 0 {
                    return Err("--fsync-batch-size must be >= 1".into());
                }
            }
            "--fsync-wait-us" => {
                config.wal.fsync_wait_us = value("--fsync-wait-us")?
                    .parse()
                    .map_err(|e| format!("--fsync-wait-us: {e}"))?;
            }
            "--checkpoint-every" => {
                config.wal.checkpoint_every = value("--checkpoint-every")?
                    .parse()
                    .map_err(|e| format!("--checkpoint-every: {e}"))?;
            }
            "--wal-fault-seed" => {
                wal_fault_seed = Some(
                    value("--wal-fault-seed")?
                        .parse()
                        .map_err(|e| format!("--wal-fault-seed: {e}"))?,
                );
            }
            "--wal-fault-crash" => {
                wal_fault_crash = value("--wal-fault-crash")?
                    .parse()
                    .map_err(|e| format!("--wal-fault-crash: {e}"))?;
            }
            "--replica-of" => {
                config.replica_of = Some(value("--replica-of")?);
            }
            "--repl-accept" => config.repl_accept = true,
            "--repl-min-acks" => {
                config.repl_min_acks = value("--repl-min-acks")?
                    .parse()
                    .map_err(|e| format!("--repl-min-acks: {e}"))?;
            }
            "--repl-lease-ms" => {
                let ms: u64 = value("--repl-lease-ms")?
                    .parse()
                    .map_err(|e| format!("--repl-lease-ms: {e}"))?;
                if ms == 0 {
                    return Err("--repl-lease-ms must be >= 1".into());
                }
                config.repl_lease = Duration::from_millis(ms);
            }
            "--repl-ack-timeout-ms" => {
                config.repl_ack_timeout = Duration::from_millis(
                    value("--repl-ack-timeout-ms")?
                        .parse()
                        .map_err(|e| format!("--repl-ack-timeout-ms: {e}"))?,
                );
            }
            "--repl-auto-promote" => config.repl_auto_promote = true,
            "--repl-peer" => {
                // Repeatable: one flag per peer in the election electorate.
                config.repl_peers.push(value("--repl-peer")?);
            }
            "--repl-suspect-ms" => {
                let ms: u64 = value("--repl-suspect-ms")?
                    .parse()
                    .map_err(|e| format!("--repl-suspect-ms: {e}"))?;
                if ms == 0 {
                    return Err("--repl-suspect-ms must be >= 1".into());
                }
                config.repl_suspect = Duration::from_millis(ms);
            }
            "--repl-fault-seed" => {
                repl_fault_seed = Some(
                    value("--repl-fault-seed")?
                        .parse()
                        .map_err(|e| format!("--repl-fault-seed: {e}"))?,
                );
                config.repl_seed = repl_fault_seed.unwrap_or(config.repl_seed);
            }
            "--repl-fault-rate" => {
                repl_fault_rate = value("--repl-fault-rate")?
                    .parse()
                    .map_err(|e| format!("--repl-fault-rate: {e}"))?;
            }
            "--trace-sample-n" => {
                config.trace_sample_n = value("--trace-sample-n")?
                    .parse()
                    .map_err(|e| format!("--trace-sample-n: {e}"))?;
            }
            "--trace-out" => trace_out = Some(value("--trace-out")?),
            "--stats-interval-secs" => {
                let secs: u64 = value("--stats-interval-secs")?
                    .parse()
                    .map_err(|e| format!("--stats-interval-secs: {e}"))?;
                if secs == 0 {
                    return Err("--stats-interval-secs must be >= 1".into());
                }
                stats_interval = Some(secs);
            }
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown flag {other:?}\n{}", usage())),
        }
    }
    // Crash-soak hook: a seeded fault plan switches the WAL to the Abort
    // backend, which tears a seeded append onto disk and kills the process
    // the way SIGKILL would. Test harness only; no effect without
    // --data-dir.
    if let Some(seed) = wal_fault_seed {
        let plan = gocc_faultplane::StorageFaultPlan::new(
            seed,
            gocc_faultplane::StorageMix {
                crash_per_append: wal_fault_crash,
                torn_given_crash: 0.5,
                short_fsync: 0.0,
                ckpt_crash: 0.0,
            },
        );
        config.wal.backend = WalBackend::Abort(std::sync::Arc::new(plan));
    }
    // Failover-soak hook: a seeded transport fault plan on the replication
    // stream only (client connections stay clean), driving partitions,
    // stalls and resets between primary and replica deterministically.
    if let Some(seed) = repl_fault_seed {
        if repl_fault_rate > 0.0 {
            config.repl_fault_plan = Some(std::sync::Arc::new(
                gocc_faultplane::TransportFaultPlan::new(
                    seed,
                    gocc_faultplane::TransportMix::uniform(repl_fault_rate),
                ),
            ));
        }
    }
    Ok(Cli {
        config,
        stats_out,
        trace_out,
        stats_interval,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let Cli {
        config,
        stats_out,
        trace_out,
        stats_interval,
    } = cli;

    let mode = config.mode;
    let (workers, shards) = (config.workers, config.shards);
    let handle = match spawn(config) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("goccd: bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "goccd listening on 127.0.0.1:{} (mode={} workers={workers} shards={shards} role={} git_rev={})",
        handle.port(),
        mode_name(mode),
        handle.state().role_name(),
        handle.state().git_rev(),
    );
    // Surface what recovery did before the daemon takes traffic: an
    // operator restarting after a crash wants "how much came back"
    // without having to query STATS.
    if let Some(wal) = handle.state().wal() {
        let r = wal.recovery_stats();
        println!(
            "goccd recovered {} records (checkpoint {} + WAL replay {}, torn tail {} bytes)",
            r.checkpoint_entries + r.replayed,
            r.checkpoint_entries,
            r.replayed,
            r.truncated_bytes,
        );
    }
    println!("LISTENING {}", handle.port());
    // Scripts parse the LISTENING line from a redirected pipe; don't let
    // it sit in a stdio buffer.
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    // Periodic one-line operational summary, opt-in. The thread owns an
    // Arc of the state so it can outlive the borrowed handle; it exits on
    // the shutdown flag and is detached (join would add up to a full
    // interval of shutdown latency for log output nobody is waiting on).
    let state = handle.state_arc();
    if let Some(secs) = stats_interval {
        let state = handle.state_arc();
        std::thread::spawn(move || {
            let mut last_total = 0u64;
            while !state.shutting_down() {
                // Sleep in small steps so shutdown is observed promptly.
                let until = std::time::Instant::now() + Duration::from_secs(secs);
                while std::time::Instant::now() < until && !state.shutting_down() {
                    std::thread::sleep(Duration::from_millis(50));
                }
                if state.shutting_down() {
                    break;
                }
                let c = state.counters();
                let total = c.total_requests();
                let p99 = c.request_latency().snapshot().quantile(0.99);
                println!(
                    "stats: {:.0} req/s shed={} brownout={} p99={}ns",
                    (total - last_total) as f64 / secs as f64,
                    c.shed_total(),
                    state.brownout().state().name(),
                    p99,
                );
                let _ = std::io::stdout().flush();
                last_total = total;
            }
        });
    }

    let summary = handle.join();
    println!(
        "goccd shut down: {} conns, {} requests, {} malformed frames, {} slow-client drops",
        summary.conns_accepted,
        summary.requests,
        summary.malformed_frames,
        summary.slow_client_drops,
    );
    if let Some(path) = stats_out {
        if let Err(e) = std::fs::write(&path, &summary.stats_json) {
            eprintln!("goccd: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }
    if let Some(path) = trace_out {
        let dump = state.chrome_trace_json();
        // The dump must load in a trace viewer; parsing it through the
        // repo's own JSON reader catches a malformed document before it
        // ships.
        if JsonValue::parse(&dump).is_err() {
            eprintln!("goccd: internal error: trace dump is not valid JSON");
            return ExitCode::FAILURE;
        }
        if let Err(e) = std::fs::write(&path, &dump) {
            eprintln!("goccd: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }
    ExitCode::SUCCESS
}
