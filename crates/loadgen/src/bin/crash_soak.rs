//! `crash_soak` — seeded crash/recovery soak for the durability
//! subsystem.
//!
//! Two phases attack the same invariant — **no acknowledged write is
//! ever lost, no unacknowledged write is ever half-applied** — at two
//! different altitudes:
//!
//! 1. **Sim matrix** (in-process): the full write path — `Engine` →
//!    `ShardedStore::execute_batch` (batches of one) → `Wal` — over the simulated
//!    durable-prefix backend, with concurrent writers on disjoint key
//!    partitions and a per-key sequential oracle. Seeded crash draws
//!    kill the log at a reproducible byte (torn records, short fsyncs
//!    included); recovery into a fresh store must agree with the oracle
//!    in **both** execution modes (lock and gocc).
//! 2. **Process kill** (end-to-end): a real `goccd` child with
//!    `--wal-fault-seed`, driven over a real socket until the Abort
//!    backend tears an append onto disk and `abort()`s the daemon.
//!    A fault-free restart on the same `--data-dir` must serve every
//!    acknowledged write back; a final graceful restart must match the
//!    client's state exactly.
//!
//! Per-key correctness model: a sequential writer (per key) records the
//! post-state of every *issued* op and the index of the last *acked*
//! op. Recovery replays, per key, the surviving record with the highest
//! commit sequence — survival is prefix-ordered per shard — so the
//! recovered state must be one of the issued post-states at or after
//! the last acked one ([`KeyHist::admits`]). Anything else is a lost ack
//! or an invented write.
//!
//! Exit codes: 1 = harness error, 2 = liveness watchdog (hung recovery or
//! stuck barrier), 4 = the durability oracle was violated (lost ack,
//! invented write, recovery mismatch).
//!
//! ```console
//! $ crash_soak --seed 2026 --mode both --sim-runs 6 --kill-cycles 2
//! ```

use std::net::TcpStream;
use std::path::Path;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gocc_faultplane::{StorageFaultPlan, StorageMix};
use gocc_loadgen::soak::{
    self, check_oracle, issue_op, violation, Daemon, Flags, Liveness, Oracle, SoakResult, TempDir,
};
use gocc_optilock::{GoccConfig, GoccRuntime};
use gocc_server::{mode_name, BatchScratch, Mode, ShardedStore};
use gocc_telemetry::{JsonValue, SplitMix64};
use gocc_wal::{SyncPolicy, Wal, WalBackend, WalConfig};
use gocc_wire::{Pipe, Request, Response};
use gocc_workloads::Engine;

const NAME: &str = "crash_soak";

// ---------------------------------------------------------------- args --

struct Args {
    seed: u64,
    /// None = both modes.
    mode: Option<Mode>,
    /// Seeds swept in the sim matrix (per mode).
    sim_runs: u64,
    /// Ops per writer thread in one sim run.
    sim_ops: u64,
    sim_threads: usize,
    /// Kill/recover cycles per mode in the end-to-end phase.
    kill_cycles: u64,
    /// Op cap per cycle (a cycle that never crashes shuts down cleanly).
    cycle_ops: u64,
    /// Per-append crash probability handed to the fault plan.
    crash_rate: f64,
    /// Path to the goccd binary; "none" skips the end-to-end phase.
    goccd: Option<String>,
    stall_secs: u64,
}

fn parse(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        seed: 2026,
        mode: None,
        sim_runs: 8,
        sim_ops: 400,
        sim_threads: 3,
        kill_cycles: 2,
        cycle_ops: 4000,
        crash_rate: 0.004,
        goccd: Some("./target/release/goccd".to_string()),
        stall_secs: 60,
    };
    Flags::new(NAME)
        .seed(&mut args.seed)
        .mode(&mut args.mode)
        .num("--sim-runs", "N", &mut args.sim_runs)
        .num("--sim-ops", "N", &mut args.sim_ops)
        .num("--sim-threads", "N", &mut args.sim_threads)
        .num("--kill-cycles", "N", &mut args.kill_cycles)
        .num("--cycle-ops", "N", &mut args.cycle_ops)
        .num("--crash-rate", "F", &mut args.crash_rate)
        .or_none("--goccd", "PATH|none", &mut args.goccd)
        .stall_secs(&mut args.stall_secs)
        .parse(raw)?;
    if args.sim_threads == 0 || args.sim_ops == 0 {
        return Err("--sim-threads/--sim-ops must be >= 1".into());
    }
    Ok(args)
}

// ----------------------------------------------- phase 1: sim matrix --

const SIM_SHARDS: usize = 2;
const SIM_KEYS_PER_THREAD: u64 = 16;

fn sim_wal_cfg(backend: WalBackend) -> WalConfig {
    WalConfig {
        sync: SyncPolicy::Group,
        fsync_batch_size: 8,
        fsync_wait_us: 20,
        checkpoint_every: 0,
        backend,
    }
}

/// One seeded run: concurrent writers through the real durable write
/// path over the sim backend, then recovery into a fresh store checked
/// key-by-key against the oracle. Returns whether the seed crashed.
fn sim_run(seed: u64, mode: Mode, args: &Args, live: &Liveness) -> SoakResult<bool> {
    let dir = TempDir::new(&format!("crashsoak-sim-{seed}-{}", mode_name(mode)));
    let plan = Arc::new(StorageFaultPlan::new(
        seed,
        StorageMix {
            crash_per_append: args.crash_rate,
            torn_given_crash: 0.5,
            short_fsync: 0.2,
            ckpt_crash: 0.0,
        },
    ));
    let (wal, _) = Wal::open(dir.path(), SIM_SHARDS, sim_wal_cfg(WalBackend::Sim(plan)))
        .map_err(|e| format!("seed {seed}: open wal: {e}"))?;
    let store = ShardedStore::new(SIM_SHARDS, 4096);
    let rt = GoccRuntime::new(GoccConfig::with_telemetry());
    let stop = AtomicBool::new(false);

    let per_thread = soak::in_parallel(args.sim_threads, |t| {
        let engine = Engine::new(&rt, mode);
        let mut rng = SplitMix64::new(seed ^ (t as u64 + 1).wrapping_mul(0x9E37_79B9));
        let mut oracle = Oracle::new();
        let mut crashed = false;
        let mut scratch = BatchScratch::default();
        'ops: for i in 0..args.sim_ops {
            if stop.load(Ordering::Relaxed) {
                break;
            }
            let key = format!("t{t}-k{}", rng.below(SIM_KEYS_PER_THREAD));
            let hist = oracle.entry(key.clone()).or_default();
            let req = issue_op(&mut rng, &key, hist, true);
            // The server's write path: a batch of one.
            let routed = [store.route(&req).expect("write verbs route")];
            let out =
                &store.execute_batch(&engine, &routed, Some(&wal), &mut scratch, |_, _, run| {
                    run()
                })[0];
            // Client-side Incr model must match the store's
            // post-image exactly, or the oracle is junk.
            if let (Request::Incr { .. }, Response::Counter { value }) = (&req, &out.resp) {
                if hist.current() != Some(*value) {
                    return Err(violation(format!(
                        "seed {seed} t{t} op {i}: incr oracle diverged \
                         ({:?} vs store {value})",
                        hist.current()
                    )));
                }
            }
            match out.ticket {
                Some(ticket) => match wal.wait(ticket) {
                    Ok(()) => hist.ack_last(),
                    Err(_) => {
                        crashed = true;
                        stop.store(true, Ordering::Relaxed);
                        break 'ops;
                    }
                },
                None => return Err(format!("seed {seed}: write verb had no ticket").into()),
            }
            live.beat();
        }
        Ok((oracle, crashed))
    });
    wal.shutdown();
    let mut oracle = Oracle::new();
    let mut crashed = false;
    for (part, c) in per_thread? {
        crashed |= c;
        oracle.extend(part); // key partitions are disjoint by prefix
    }

    // Recovery: reopen the materialized files fault-free, restore into a
    // brand-new store under a brand-new runtime, read back every key.
    let (wal2, recovered) = Wal::open(dir.path(), SIM_SHARDS, sim_wal_cfg(WalBackend::Real))
        .map_err(|e| format!("seed {seed}: reopen wal: {e}"))?;
    let store2 = ShardedStore::new(SIM_SHARDS, 4096);
    let rt2 = GoccRuntime::new(GoccConfig::with_telemetry());
    store2.restore_all(rt2.htm(), &recovered.shards);
    let engine2 = Engine::new(&rt2, mode);
    let mut scratch = BatchScratch::default();
    let whence = format!(
        "recovered in seed {seed} mode {} (crashed={crashed})",
        mode_name(mode)
    );
    check_oracle(&mut oracle, &whence, false, |key| {
        let get = Request::Get {
            key: key.as_bytes(),
        };
        let routed = [store2.route(&get).expect("GET routes")];
        match store2.execute_batch(&engine2, &routed, None, &mut scratch, |_, _, run| {
            run();
        })[0]
            .resp
        {
            Response::Value { found, value } => Ok(found.then_some(value)),
            ref other => Err(format!("seed {seed}: GET answered {other:?}")),
        }
    })?;
    wal2.shutdown();
    Ok(crashed)
}

fn phase1_sim(args: &Args, mode: Mode, live: &Liveness) -> SoakResult<()> {
    let mut crashes = 0u64;
    for s in 0..args.sim_runs {
        if sim_run(args.seed.wrapping_add(s), mode, args, live)? {
            crashes += 1;
        }
    }
    if args.sim_runs >= 4 && crashes == 0 {
        return Err(format!(
            "the fault schedule never crashed a sim run in {} attempts — \
             the matrix verified nothing",
            args.sim_runs
        )
        .into());
    }
    println!(
        "phase 1 sim ({:<4})   OK  runs={} crashed={crashes}",
        mode_name(mode),
        args.sim_runs
    );
    Ok(())
}

// ------------------------------------------ phase 2: process kill --

fn spawn_goccd(
    bin: &str,
    mode: Mode,
    dir: &Path,
    fault: Option<(u64, f64)>,
) -> Result<Daemon, String> {
    let mut cmd = Daemon::command(bin, mode, dir);
    if let Some((seed, rate)) = fault {
        cmd.args(["--wal-fault-seed", &seed.to_string()])
            .args(["--wal-fault-crash", &rate.to_string()]);
    }
    Daemon::spawn(cmd)
}

/// Boots a fault-free goccd on `dir` and checks every oracle key, then
/// rebaselines the oracle on what recovery actually kept (that state is
/// durable — it is the truth the next cycle builds on). Leaves the
/// daemon running and returns it with a connected client.
fn verify_recovery(
    bin: &str,
    mode: Mode,
    dir: &Path,
    oracle: &mut Oracle,
    after: &str,
) -> SoakResult<(Daemon, Pipe<TcpStream>)> {
    let daemon = spawn_goccd(bin, mode, dir, None)?;
    let mut client = soak::connect(daemon.port())?;
    let whence = format!("recovered after {after} ({})", mode_name(mode));
    check_oracle(oracle, &whence, true, |key| get(&mut client, key))?;
    // The recovery counters must be visible to operators, not only to
    // this harness.
    let Response::Stats { json } = client.call(&Request::Stats)? else {
        return Err("STATS after recovery failed".into());
    };
    let doc = JsonValue::parse(json).map_err(|e| format!("STATS JSON: {e}"))?;
    let rec = doc
        .get("wal")
        .and_then(|w| w.get("recovery"))
        .ok_or("STATS lacks wal.recovery after a restart")?;
    let restored = rec
        .get("recovery_replayed")
        .and_then(JsonValue::as_f64)
        .unwrap_or(0.0)
        + rec
            .get("checkpoint_entries")
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0);
    if !oracle.is_empty() && oracle.values().any(|h| h.current().is_some()) && restored == 0.0 {
        return Err(violation(format!(
            "live keys exist but STATS reports nothing restored after {after}"
        )));
    }
    Ok((daemon, client))
}

fn get(client: &mut Pipe<TcpStream>, key: &str) -> Result<Option<u64>, String> {
    let get = Request::Get {
        key: key.as_bytes(),
    };
    match client.call(&get).map_err(|e| format!("GET {key}: {e}"))? {
        Response::Value { found, value } => Ok(found.then_some(value)),
        other => Err(format!("GET {key} answered {other:?}")),
    }
}

fn shutdown_daemon(mut daemon: Daemon, client: &mut Pipe<TcpStream>) -> Result<(), String> {
    match client.call(&Request::Shutdown).map_err(|e| e.to_string())? {
        Response::Bye => {}
        other => return Err(format!("SHUTDOWN answered {other:?}")),
    }
    let status = daemon.wait_exit(Duration::from_secs(30))?;
    if !status.success() {
        return Err(format!("goccd did not shut down cleanly: {status}"));
    }
    Ok(())
}

fn phase2_kill(args: &Args, bin: &str, mode: Mode, live: &Liveness) -> SoakResult<()> {
    let dir = TempDir::new(&format!("crashsoak-kill-{}", mode_name(mode)));
    let dir = dir.path();
    let mut oracle = Oracle::new();
    let mut rng = SplitMix64::new(args.seed ^ 0xC4A5_4B0A);
    let mut kills = 0u64;

    for cycle in 0..args.kill_cycles {
        let fault_seed = args.seed.wrapping_add(cycle).wrapping_mul(0x2545_F491);
        let mut daemon = spawn_goccd(bin, mode, dir, Some((fault_seed, args.crash_rate)))?;
        let mut client = soak::connect(daemon.port())?;
        let mut died = false;
        for _ in 0..args.cycle_ops {
            let key = format!("bk-{}", rng.below(24));
            let hist = oracle.entry(key.clone()).or_default();
            let req = issue_op(&mut rng, &key, hist, true);
            match client.call(&req) {
                Ok(Response::Error { message }) => {
                    return Err(format!("cycle {cycle}: server error: {message}").into());
                }
                Ok(_) => hist.ack_last(),
                Err(_) => {
                    // The abort fired mid-call: the in-flight op stays
                    // issued-but-unacked. Reap the corpse.
                    died = true;
                    break;
                }
            }
            live.beat();
        }
        if died {
            // The seeded abort is the scenario: give the dying daemon
            // time to finish aborting before recovery opens its files.
            let _ = daemon.wait_exit(Duration::from_secs(30));
            kills += 1;
            (daemon, client) =
                verify_recovery(bin, mode, dir, &mut oracle, &format!("kill {kills}"))?;
        }
        // A cycle whose schedule never fired ends gracefully too, so the
        // next cycle's seed gets its chance.
        shutdown_daemon(daemon, &mut client)?;
        live.beat();
    }
    if kills == 0 {
        return Err(format!(
            "no seeded kill fired in {} cycles of {} ops — the end-to-end phase \
             verified nothing (raise --crash-rate or --cycle-ops)",
            args.kill_cycles, args.cycle_ops
        )
        .into());
    }

    // Final exactness: a fault-free run of acked writes, FLUSH, graceful
    // shutdown, restart — now nothing is in flight, so recovery must
    // match the client state *exactly*, not merely admit it.
    let (daemon, mut client) = verify_recovery(bin, mode, dir, &mut oracle, "final recovery")?;
    for i in 0..64u64 {
        let key = format!("bk-{}", i % 24);
        let hist = oracle.entry(key.clone()).or_default();
        let req = issue_op(&mut rng, &key, hist, true);
        match client.call(&req) {
            Ok(Response::Error { message }) => {
                return Err(format!("final writes: server error: {message}").into())
            }
            Ok(_) => hist.ack_last(),
            Err(e) => return Err(format!("final writes: {e}").into()),
        }
    }
    match client.call(&Request::Flush)? {
        Response::Flushed { durable_lsn } if durable_lsn > 0 => {}
        other => return Err(format!("FLUSH answered {other:?}").into()),
    }
    shutdown_daemon(daemon, &mut client)?;
    let daemon = spawn_goccd(bin, mode, dir, None)?;
    let mut client = soak::connect(daemon.port())?;
    for (key, hist) in &oracle {
        let got = get(&mut client, key)?;
        if got != hist.current() {
            return Err(violation(format!(
                "mode {}: graceful restart diverged on {key}: got {got:?}, want {:?}",
                mode_name(mode),
                hist.current()
            )));
        }
    }
    shutdown_daemon(daemon, &mut client)?;
    println!(
        "phase 2 kill ({:<4})  OK  cycles={} kills={kills} keys={}",
        mode_name(mode),
        args.kill_cycles,
        oracle.len()
    );
    Ok(())
}

// ---------------------------------------------------------------- main --

fn run(args: &Args) -> SoakResult<()> {
    let modes = soak::modes(args.mode);
    let live = Liveness::start(NAME, args.stall_secs);
    let t0 = Instant::now();

    for &mode in &modes {
        phase1_sim(args, mode, &live)?;
    }
    match &args.goccd {
        Some(bin) => {
            for &mode in &modes {
                phase2_kill(args, bin, mode, &live)?;
            }
        }
        None => println!("phase 2 kill        SKIP (--goccd none)"),
    }

    live.finish();
    println!(
        "crash_soak PASS  seed={} sim_runs={} kill_cycles={} crash_rate={} {:?}",
        args.seed,
        args.sim_runs,
        args.kill_cycles,
        args.crash_rate,
        t0.elapsed(),
    );
    Ok(())
}

fn main() -> ExitCode {
    soak::main(NAME, parse, run)
}
