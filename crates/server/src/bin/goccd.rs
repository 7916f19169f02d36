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

use gocc_server::flags::Flags;
use gocc_server::{mode_name, parse_mode, spawn, ServerConfig, SyncPolicy, WalBackend};

fn parse_args(args: &[String]) -> Result<ServerConfig, String> {
    let mut config = ServerConfig::default();
    let mut wal_fault_seed: Option<u64> = None;
    let mut wal_fault_crash: Option<f64> = None;
    let c = &mut config;
    Flags::new("goccd")
        .value("--mode", "lock|gocc", |v| {
            c.mode = parse_mode(v)?;
            Ok(())
        })
        .num("--port", "N", &mut c.port)
        .count("--workers", &mut c.workers)
        .count("--shards", &mut c.shards)
        .num("--capacity", "N", &mut c.capacity_per_shard)
        .millis("--write-timeout-ms", &mut c.write_timeout)
        .millis("--drain-timeout-ms", &mut c.drain_timeout)
        .count("--queue-limit", &mut c.queue_limit)
        .num("--trace-sample-n", "N", &mut c.trace_sample_n)
        .opt("--data-dir", "PATH", &mut c.data_dir)
        .value("--wal-sync", "off|group|always", |v| {
            c.wal.sync = SyncPolicy::parse(v)
                .ok_or_else(|| format!("unknown policy {v:?} (off|group|always)"))?;
            Ok(())
        })
        .count("--fsync-batch-size", &mut c.wal.fsync_batch_size)
        .num("--fsync-wait-us", "N", &mut c.wal.fsync_wait_us)
        .num("--checkpoint-every", "N", &mut c.wal.checkpoint_every)
        .opt("--wal-fault-seed", "N", &mut wal_fault_seed)
        .opt("--wal-fault-crash", "P", &mut wal_fault_crash)
        .opt("--replica-of", "HOST:PORT", &mut c.replica_of)
        .switch("--repl-accept", &mut c.repl_accept)
        .num("--repl-min-acks", "N", &mut c.repl_min_acks)
        .positive_millis("--repl-lease-ms", &mut c.repl_lease)
        .millis("--repl-ack-timeout-ms", &mut c.repl_ack_timeout)
        .switch("--repl-auto-promote", &mut c.repl_auto_promote)
        // Repeatable: one flag per peer in the election electorate.
        .value("--repl-peer", "HOST:PORT", |v| {
            c.repl_peers.push(v.to_string());
            Ok(())
        })
        .positive_millis("--repl-suspect-ms", &mut c.repl_suspect)
        .parse(args)?;
    // A probability with no plan to draw it would be silently ignored.
    if wal_fault_crash.is_some() && wal_fault_seed.is_none() {
        return Err("--wal-fault-crash needs --wal-fault-seed".into());
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
    use std::time::Duration;

    fn parse(args: &[&str]) -> Result<ServerConfig, String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    type Check = fn(&ServerConfig) -> bool;

    /// Every flag, a command line that sets it, and the field it must set
    /// (off its default). `ci.sh` stage "every flag exercised" holds this
    /// flag column to `parse_args`'s rows and README's table.
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
            assert_eq!(err, format!("{flag}: must be >= 1"));
        }
    }

    #[test]
    fn unknown_and_deleted_flags_are_refused() {
        for flag in [
            "--bogus",
            "--stats-out",
            "--trace-out",
            "--stats-interval-secs",
            "--repl-fault-seed",
            "--repl-fault-rate",
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
    }
}
