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
//! (wire SHUTDOWN verb), printing the final summary. The STATS and TRACE
//! verbs serve the counters and the flight recorder's spans while it runs.

use std::process::ExitCode;
use std::time::Duration;

use gocc_server::{mode_name, parse_mode, spawn, ServerConfig, SyncPolicy, WalBackend};

fn usage() -> String {
    "usage: goccd [--mode lock|gocc] [--port N] [--workers N] [--shards N] \
     [--capacity N] [--write-timeout-ms N] [--drain-timeout-ms N] \
     [--queue-limit N] [--trace-sample-n N] \
     [--data-dir PATH] [--wal-sync off|group|always] [--fsync-batch-size N] \
     [--fsync-wait-us N] [--checkpoint-every N] \
     [--wal-fault-seed N --wal-fault-crash P] \
     [--replica-of HOST:PORT] [--repl-accept] [--repl-min-acks N] \
     [--repl-lease-ms N] [--repl-ack-timeout-ms N] \
     [--repl-fault-seed N --repl-fault-rate P] \
     [--repl-auto-promote] [--repl-peer HOST:PORT]... [--repl-suspect-ms N]"
        .to_string()
}

fn parse_args(args: &[String]) -> Result<ServerConfig, String> {
    let mut config = ServerConfig::default();
    let mut wal_fault_seed: Option<u64> = None;
    let mut wal_fault_crash: Option<f64> = None;
    let mut repl_fault_seed: Option<u64> = None;
    let mut repl_fault_rate: Option<f64> = None;
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
                wal_fault_crash = Some(
                    value("--wal-fault-crash")?
                        .parse()
                        .map_err(|e| format!("--wal-fault-crash: {e}"))?,
                );
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
                repl_fault_rate = Some(
                    value("--repl-fault-rate")?
                        .parse()
                        .map_err(|e| format!("--repl-fault-rate: {e}"))?,
                );
            }
            "--trace-sample-n" => {
                config.trace_sample_n = value("--trace-sample-n")?
                    .parse()
                    .map_err(|e| format!("--trace-sample-n: {e}"))?;
            }
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown flag {other:?}\n{}", usage())),
        }
    }
    // A probability with no plan to draw it would be silently ignored.
    if wal_fault_crash.is_some() && wal_fault_seed.is_none() {
        return Err("--wal-fault-crash needs --wal-fault-seed".into());
    }
    if repl_fault_rate.is_some() && repl_fault_seed.is_none() {
        return Err("--repl-fault-rate needs --repl-fault-seed".into());
    }
    // Crash-soak hook: a seeded fault plan switches the WAL to the Abort
    // backend, which tears a seeded append onto disk and kills the process
    // the way SIGKILL would. Test harness only; no effect without
    // --data-dir.
    if let Some(seed) = wal_fault_seed {
        let plan = gocc_faultplane::StorageFaultPlan::new(
            seed,
            gocc_faultplane::StorageMix {
                crash_per_append: wal_fault_crash.unwrap_or(0.0),
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
    if let (Some(seed), Some(rate)) = (repl_fault_seed, repl_fault_rate) {
        if rate > 0.0 {
            config.repl_fault_plan = Some(std::sync::Arc::new(
                gocc_faultplane::TransportFaultPlan::new(
                    seed,
                    gocc_faultplane::TransportMix::uniform(rate),
                ),
            ));
        }
    }
    Ok(config)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse_args(&args) {
        Ok(config) => config,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

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

    let summary = handle.join();
    println!(
        "goccd shut down: {} conns, {} requests, {} malformed frames, {} slow-client drops",
        summary.conns_accepted,
        summary.requests,
        summary.malformed_frames,
        summary.slow_client_drops,
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use gocc_server::Mode;

    fn parse(args: &[&str]) -> Result<ServerConfig, String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    type Check = fn(&ServerConfig) -> bool;

    /// Every flag, a command line that sets it, and the field it must set
    /// (off its default). `ci.sh` stage "every flag exercised" reads the
    /// flag column.
    const FLAGS: &[(&str, &[&str], Check)] = &[
        ("--mode", &["--mode", "lock"], |c| c.mode == Mode::Lock),
        ("--port", &["--port", "4091"], |c| c.port == 4091),
        ("--workers", &["--workers", "3"], |c| c.workers == 3),
        ("--shards", &["--shards", "8"], |c| c.shards == 8),
        ("--capacity", &["--capacity", "100"], |c| {
            c.capacity_per_shard == 100
        }),
        ("--write-timeout-ms", &["--write-timeout-ms", "7"], |c| {
            c.write_timeout == Duration::from_millis(7)
        }),
        ("--drain-timeout-ms", &["--drain-timeout-ms", "9"], |c| {
            c.drain_timeout == Duration::from_millis(9)
        }),
        ("--queue-limit", &["--queue-limit", "5"], |c| {
            c.queue_limit == 5
        }),
        ("--trace-sample-n", &["--trace-sample-n", "3"], |c| {
            c.trace_sample_n == 3
        }),
        ("--data-dir", &["--data-dir", "/d"], |c| {
            c.data_dir.as_deref() == Some(std::path::Path::new("/d"))
        }),
        ("--wal-sync", &["--wal-sync", "always"], |c| {
            c.wal.sync == SyncPolicy::Always
        }),
        ("--fsync-batch-size", &["--fsync-batch-size", "3"], |c| {
            c.wal.fsync_batch_size == 3
        }),
        ("--fsync-wait-us", &["--fsync-wait-us", "11"], |c| {
            c.wal.fsync_wait_us == 11
        }),
        ("--checkpoint-every", &["--checkpoint-every", "13"], |c| {
            c.wal.checkpoint_every == 13
        }),
        (
            "--wal-fault-seed",
            &["--wal-fault-seed", "1"],
            |c| matches!(&c.wal.backend, WalBackend::Abort(p) if p.seed() == 1),
        ),
        (
            "--wal-fault-crash",
            &["--wal-fault-seed", "1", "--wal-fault-crash", "0.25"],
            |c| matches!(&c.wal.backend, WalBackend::Abort(p) if p.mix().crash_per_append == 0.25),
        ),
        ("--replica-of", &["--replica-of", "h:1"], |c| {
            c.replica_of.as_deref() == Some("h:1")
        }),
        ("--repl-accept", &["--repl-accept"], |c| c.repl_accept),
        ("--repl-min-acks", &["--repl-min-acks", "2"], |c| {
            c.repl_min_acks == 2
        }),
        ("--repl-lease-ms", &["--repl-lease-ms", "3"], |c| {
            c.repl_lease == Duration::from_millis(3)
        }),
        (
            "--repl-ack-timeout-ms",
            &["--repl-ack-timeout-ms", "4"],
            |c| c.repl_ack_timeout == Duration::from_millis(4),
        ),
        ("--repl-fault-seed", &["--repl-fault-seed", "7"], |c| {
            c.repl_seed == 7
        }),
        (
            "--repl-fault-rate",
            &["--repl-fault-seed", "7", "--repl-fault-rate", "0.5"],
            |c| c.repl_fault_plan.is_some(),
        ),
        ("--repl-auto-promote", &["--repl-auto-promote"], |c| {
            c.repl_auto_promote
        }),
        (
            "--repl-peer",
            &["--repl-peer", "a:1", "--repl-peer", "b:2"],
            |c| c.repl_peers == ["a:1", "b:2"],
        ),
        ("--repl-suspect-ms", &["--repl-suspect-ms", "5"], |c| {
            c.repl_suspect == Duration::from_millis(5)
        }),
    ];

    #[test]
    fn every_flag_sets_its_field() {
        let defaults = ServerConfig::default();
        for &(flag, args, check) in FLAGS {
            assert!(args.contains(&flag), "{flag}'s row does not pass it");
            let config = parse(args).unwrap_or_else(|e| panic!("{args:?}: {e}"));
            assert!(check(&config), "{args:?} did not set {flag}'s field");
            assert!(!check(&defaults), "{flag}'s check holds at the default");
        }
    }

    #[test]
    fn the_table_is_the_usage() {
        let usage = usage();
        let mut in_usage: Vec<&str> = usage
            .split(|c: char| c == '[' || c == ']' || c.is_whitespace())
            .filter(|w| w.starts_with("--"))
            .collect();
        in_usage.sort_unstable();
        in_usage.dedup();
        let mut in_table: Vec<&str> = FLAGS.iter().map(|&(flag, _, _)| flag).collect();
        in_table.sort_unstable();
        assert_eq!(in_usage, in_table);
    }

    #[test]
    fn counts_below_one_are_refused() {
        for flag in [
            "--workers",
            "--shards",
            "--queue-limit",
            "--fsync-batch-size",
            "--repl-lease-ms",
            "--repl-suspect-ms",
        ] {
            let err = parse(&[flag, "0"]).expect_err(flag);
            assert_eq!(err, format!("{flag} must be >= 1"));
        }
    }

    #[test]
    fn unknown_and_deleted_flags_are_refused() {
        for flag in [
            "--bogus",
            "--stats-out",
            "--trace-out",
            "--stats-interval-secs",
        ] {
            let err = parse(&[flag, "1"]).expect_err(flag);
            assert!(err.starts_with(&format!("unknown flag {flag:?}")), "{err}");
        }
    }

    #[test]
    fn a_fault_rate_without_its_seed_is_refused() {
        assert_eq!(
            parse(&["--wal-fault-crash", "0.5"]).unwrap_err(),
            "--wal-fault-crash needs --wal-fault-seed"
        );
        assert_eq!(
            parse(&["--repl-fault-rate", "0.5"]).unwrap_err(),
            "--repl-fault-rate needs --repl-fault-seed"
        );
    }
}
