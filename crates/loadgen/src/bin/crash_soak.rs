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
//! the last acked one. Anything else is a lost ack or an invented
//! write.
//!
//! ```console
//! $ crash_soak --seed 2026 --mode both --sim-runs 6 --kill-cycles 2
//! ```

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gocc_faultplane::{StorageFaultPlan, StorageMix};
use gocc_loadgen::{connect_with_retry, ClientConfig};
use gocc_optilock::{GoccConfig, GoccRuntime};
use gocc_server::{mode_name, parse_mode, BatchScratch, Mode, ShardedStore};
use gocc_telemetry::{JsonValue, SplitMix64};
use gocc_wal::{SyncPolicy, Wal, WalBackend, WalConfig};
use gocc_wire::{decode_response, encode_request, read_frame, write_frame, Request, Response};
use gocc_workloads::Engine;

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

fn usage() -> String {
    "usage: crash_soak [--seed N] [--mode lock|gocc|both] [--sim-runs N] [--sim-ops N] \
     [--sim-threads N] [--kill-cycles N] [--cycle-ops N] [--crash-rate F] \
     [--goccd PATH|none] [--stall-secs N]"
        .to_string()
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
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
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value\n{}", usage()))
        };
        fn num<T: std::str::FromStr>(name: &str, v: &str) -> Result<T, String>
        where
            T::Err: std::fmt::Display,
        {
            v.parse().map_err(|e| format!("{name}: {e}"))
        }
        match flag.as_str() {
            "--seed" => args.seed = num("--seed", &value("--seed")?)?,
            "--mode" => {
                let v = value("--mode")?;
                args.mode = if v == "both" {
                    None
                } else {
                    Some(parse_mode(&v)?)
                };
            }
            "--sim-runs" => args.sim_runs = num("--sim-runs", &value("--sim-runs")?)?,
            "--sim-ops" => args.sim_ops = num("--sim-ops", &value("--sim-ops")?)?,
            "--sim-threads" => args.sim_threads = num("--sim-threads", &value("--sim-threads")?)?,
            "--kill-cycles" => args.kill_cycles = num("--kill-cycles", &value("--kill-cycles")?)?,
            "--cycle-ops" => args.cycle_ops = num("--cycle-ops", &value("--cycle-ops")?)?,
            "--crash-rate" => args.crash_rate = num("--crash-rate", &value("--crash-rate")?)?,
            "--goccd" => {
                let v = value("--goccd")?;
                args.goccd = (v != "none").then_some(v);
            }
            "--stall-secs" => args.stall_secs = num("--stall-secs", &value("--stall-secs")?)?,
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown flag {other:?}\n{}", usage())),
        }
    }
    if args.sim_threads == 0 || args.sim_ops == 0 {
        return Err("--sim-threads/--sim-ops must be >= 1".into());
    }
    Ok(args)
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gocc-crashsoak-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

// ------------------------------------------------------- per-key oracle --

/// Post-state history of one key under a sequential (per-key) writer.
#[derive(Default)]
struct KeyHist {
    /// Post-state after each issued op: `Some(v)` or `None` (deleted).
    states: Vec<Option<u64>>,
    /// Index into `states` of the last acknowledged op.
    acked: Option<usize>,
}

impl KeyHist {
    /// Current client-visible state (last issued).
    fn current(&self) -> Option<u64> {
        self.states.last().copied().flatten()
    }

    /// Whether a recovered state is legal: the acked state or any later
    /// *issued* state (an unacked successor that reached disk); with no
    /// ack yet, also the initial absence.
    fn admits(&self, got: Option<u64>) -> bool {
        match self.acked {
            Some(ai) => self.states[ai..].contains(&got),
            None => got.is_none() || self.states.contains(&got),
        }
    }
}

type Oracle = HashMap<String, KeyHist>;

/// Draws the next write op for `key` and appends its issued post-state.
/// Returns the request to send; the caller marks the ack.
fn issue_op<'k>(rng: &mut SplitMix64, key: &'k str, hist: &mut KeyHist) -> Request<'k> {
    match rng.below(100) {
        0..=59 => {
            let value = rng.next_u64() >> 1;
            hist.states.push(Some(value));
            Request::Set {
                key: key.as_bytes(),
                value,
                ttl: 0,
            }
        }
        60..=84 => {
            let delta = rng.below(1000) + 1;
            let new = hist.current().unwrap_or(0).wrapping_add(delta);
            hist.states.push(Some(new));
            Request::Incr {
                key: key.as_bytes(),
                delta,
            }
        }
        _ => {
            hist.states.push(None);
            Request::Del {
                key: key.as_bytes(),
            }
        }
    }
}

// ---------------------------------------------------- liveness watchdog --

struct Liveness {
    beats: AtomicU64,
    done: AtomicBool,
}

fn start_liveness_monitor(stall: Duration) -> Arc<Liveness> {
    let live = Arc::new(Liveness {
        beats: AtomicU64::new(0),
        done: AtomicBool::new(false),
    });
    let monitor = Arc::clone(&live);
    std::thread::Builder::new()
        .name("crash-liveness".into())
        .spawn(move || {
            let mut last = monitor.beats.load(Ordering::Relaxed);
            let mut last_change = Instant::now();
            loop {
                std::thread::sleep(Duration::from_millis(200));
                if monitor.done.load(Ordering::Relaxed) {
                    return;
                }
                let now = monitor.beats.load(Ordering::Relaxed);
                if now != last {
                    last = now;
                    last_change = Instant::now();
                } else if last_change.elapsed() > stall {
                    eprintln!(
                        "crash_soak: LIVENESS WATCHDOG: no progress for {}s",
                        stall.as_secs()
                    );
                    std::process::exit(2);
                }
            }
        })
        .expect("spawn liveness monitor");
    live
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
fn sim_run(seed: u64, mode: Mode, args: &Args, live: &Liveness) -> Result<bool, String> {
    let dir = tmp(&format!("sim-{seed}-{}", mode_name(mode)));
    let plan = Arc::new(StorageFaultPlan::new(
        seed,
        StorageMix {
            crash_per_append: args.crash_rate,
            torn_given_crash: 0.5,
            short_fsync: 0.2,
            ckpt_crash: 0.0,
        },
    ));
    let (wal, _) = Wal::open(&dir, SIM_SHARDS, sim_wal_cfg(WalBackend::Sim(plan)))
        .map_err(|e| format!("seed {seed}: open wal: {e}"))?;
    let store = ShardedStore::new(SIM_SHARDS, 4096);
    let rt = GoccRuntime::new(GoccConfig::with_telemetry());
    let stop = AtomicBool::new(false);

    let results: Vec<Result<(Oracle, bool), String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..args.sim_threads)
            .map(|t| {
                let (wal, store, rt, stop, live) = (&wal, &store, &rt, &stop, &live);
                s.spawn(move || -> Result<(Oracle, bool), String> {
                    let engine = Engine::new(rt, mode);
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
                        let req = issue_op(&mut rng, &key, hist);
                        // The server's write path: a batch of one.
                        let routed = [store.route(&req).expect("write verbs route")];
                        let out = &store.execute_batch(
                            &engine,
                            &routed,
                            Some(wal),
                            &mut scratch,
                            |_, _, run| run(),
                        )[0];
                        // Client-side Incr model must match the store's
                        // post-image exactly, or the oracle is junk.
                        if let (Request::Incr { .. }, Response::Counter { value }) =
                            (&req, &out.resp)
                        {
                            if hist.states.last() != Some(&Some(*value)) {
                                return Err(format!(
                                    "seed {seed} t{t} op {i}: incr oracle diverged \
                                     ({:?} vs store {value})",
                                    hist.states.last()
                                ));
                            }
                        }
                        match out.ticket {
                            Some(ticket) => match wal.wait(ticket) {
                                Ok(()) => hist.acked = Some(hist.states.len() - 1),
                                Err(_) => {
                                    crashed = true;
                                    stop.store(true, Ordering::Relaxed);
                                    break 'ops;
                                }
                            },
                            None => return Err(format!("seed {seed}: write verb had no ticket")),
                        }
                        live.beats.fetch_add(1, Ordering::Relaxed);
                    }
                    Ok((oracle, crashed))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("writer panicked".into())))
            .collect()
    });
    wal.shutdown();
    let mut oracle = Oracle::new();
    let mut crashed = false;
    for r in results {
        let (part, c) = r?;
        crashed |= c;
        oracle.extend(part); // key partitions are disjoint by prefix
    }

    // Recovery: reopen the materialized files fault-free, restore into a
    // brand-new store under a brand-new runtime, read back every key.
    let (wal2, recovered) = Wal::open(&dir, SIM_SHARDS, sim_wal_cfg(WalBackend::Real))
        .map_err(|e| format!("seed {seed}: reopen wal: {e}"))?;
    let store2 = ShardedStore::new(SIM_SHARDS, 4096);
    let rt2 = GoccRuntime::new(GoccConfig::with_telemetry());
    store2.restore_all(rt2.htm(), &recovered.shards);
    let engine2 = Engine::new(&rt2, mode);
    let mut scratch = BatchScratch::default();
    for (key, hist) in &oracle {
        let get = Request::Get {
            key: key.as_bytes(),
        };
        let routed = [store2.route(&get).expect("GET routes")];
        let got = match store2.execute_batch(&engine2, &routed, None, &mut scratch, |_, _, run| {
            run();
        })[0]
            .resp
        {
            Response::Value { found, value } => found.then_some(value),
            ref other => return Err(format!("seed {seed}: GET answered {other:?}")),
        };
        if !hist.admits(got) {
            return Err(format!(
                "seed {seed} mode {} (crashed={crashed}): key {key} recovered to {got:?}, \
                 acked index {:?} of {} issued states",
                mode_name(mode),
                hist.acked,
                hist.states.len()
            ));
        }
    }
    wal2.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    Ok(crashed)
}

fn phase1_sim(args: &Args, mode: Mode, live: &Liveness) -> Result<(), String> {
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
        ));
    }
    println!(
        "phase 1 sim ({:<4})   OK  runs={} crashed={crashes}",
        mode_name(mode),
        args.sim_runs
    );
    Ok(())
}

// ------------------------------------------ phase 2: process kill --

/// A live goccd child plus the reader for its LISTENING line.
struct Daemon {
    child: std::process::Child,
    port: u16,
}

fn spawn_goccd(
    bin: &str,
    mode: Mode,
    dir: &std::path::Path,
    fault: Option<(u64, f64)>,
) -> Result<Daemon, String> {
    let mut cmd = std::process::Command::new(bin);
    cmd.args([
        "--mode",
        mode_name(mode),
        "--port",
        "0",
        "--workers",
        "2",
        "--shards",
        "2",
    ])
    .arg("--data-dir")
    .arg(dir)
    .args(["--wal-sync", "group", "--fsync-wait-us", "100"])
    .stdout(std::process::Stdio::piped())
    .stderr(std::process::Stdio::null());
    if let Some((seed, rate)) = fault {
        cmd.args(["--wal-fault-seed", &seed.to_string()])
            .args(["--wal-fault-crash", &rate.to_string()]);
    }
    let mut child = cmd.spawn().map_err(|e| format!("spawn {bin}: {e}"))?;
    let stdout = child.stdout.take().expect("piped stdout");
    let mut reader = BufReader::new(stdout);
    let mut port = None;
    let mut line = String::new();
    let deadline = Instant::now() + Duration::from_secs(30);
    while Instant::now() < deadline {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => break, // child died before listening
            Ok(_) => {
                if let Some(p) = line.strip_prefix("LISTENING ") {
                    port = p.trim().parse().ok();
                    break;
                }
            }
            Err(e) => return Err(format!("reading goccd stdout: {e}")),
        }
    }
    let Some(port) = port else {
        let _ = child.kill();
        let _ = child.wait();
        return Err("goccd never printed LISTENING".into());
    };
    // Drain the rest of the child's stdout so it can never block on a
    // full pipe, however chatty shutdown gets.
    std::thread::spawn(move || {
        let mut sink = [0u8; 4096];
        while matches!(reader.read(&mut sink), Ok(n) if n > 0) {}
    });
    Ok(Daemon { child, port })
}

/// Fallible request/response: an Err means the daemon died mid-call —
/// exactly what a seeded abort looks like from the client side.
struct SoakClient {
    stream: TcpStream,
    wirebuf: Vec<u8>,
    respbuf: Vec<u8>,
}

impl SoakClient {
    fn connect(port: u16) -> Result<SoakClient, String> {
        // The daemon may take a beat between LISTENING and accept, so the
        // refused budget is generous — this is startup, not a dead daemon.
        let cfg = ClientConfig {
            read_timeout: Duration::from_secs(10),
            connect_attempts: 50,
            refused_attempts: 50,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(25),
            ..ClientConfig::default()
        };
        let mut rng = SplitMix64::new(0xC4A5_4150 ^ u64::from(port));
        let stream = connect_with_retry(port, &cfg, &mut rng)
            .map_err(|e| format!("connect 127.0.0.1:{port}: {e}"))?;
        Ok(SoakClient {
            stream,
            wirebuf: Vec::new(),
            respbuf: Vec::new(),
        })
    }

    fn call(&mut self, req: &Request<'_>) -> Result<Response<'_>, String> {
        self.wirebuf.clear();
        encode_request(req, &mut self.wirebuf);
        write_frame(&mut self.stream, &self.wirebuf).map_err(|e| format!("send: {e}"))?;
        match read_frame(&mut self.stream, &mut self.respbuf) {
            Ok(true) => decode_response(&self.respbuf).map_err(|e| format!("decode: {e}")),
            Ok(false) => Err("connection closed".into()),
            Err(e) => Err(format!("recv: {e}")),
        }
    }
}

/// Boots a fault-free goccd on `dir` and checks every oracle key, then
/// rebaselines the oracle on what recovery actually kept (that state is
/// durable — it is the truth the next cycle builds on). Leaves the
/// daemon running and returns it with a connected client.
fn verify_recovery(
    bin: &str,
    mode: Mode,
    dir: &std::path::Path,
    oracle: &mut Oracle,
    after: &str,
) -> Result<(Daemon, SoakClient), String> {
    let daemon = spawn_goccd(bin, mode, dir, None)?;
    let mut client = SoakClient::connect(daemon.port)?;
    for (key, hist) in oracle.iter_mut() {
        let got = match client.call(&Request::Get {
            key: key.as_bytes(),
        })? {
            Response::Value { found, value } => found.then_some(value),
            other => return Err(format!("GET after {after}: {other:?}")),
        };
        if !hist.admits(got) {
            return Err(format!(
                "mode {}: key {key} after {after} recovered to {got:?}, acked index {:?} \
                 of {} issued states",
                mode_name(mode),
                hist.acked,
                hist.states.len()
            ));
        }
        *hist = KeyHist {
            states: vec![got],
            acked: Some(0),
        };
    }
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
        return Err(format!(
            "live keys exist but STATS reports nothing restored after {after}"
        ));
    }
    Ok((daemon, client))
}

fn shutdown_daemon(mut daemon: Daemon, client: &mut SoakClient) -> Result<(), String> {
    match client.call(&Request::Shutdown)? {
        Response::Bye => {}
        other => return Err(format!("SHUTDOWN answered {other:?}")),
    }
    let status = daemon.child.wait().map_err(|e| format!("wait: {e}"))?;
    if !status.success() {
        return Err(format!("goccd did not shut down cleanly: {status}"));
    }
    Ok(())
}

fn phase2_kill(args: &Args, bin: &str, mode: Mode, live: &Liveness) -> Result<(), String> {
    let dir = tmp(&format!("kill-{}", mode_name(mode)));
    let mut oracle = Oracle::new();
    let mut rng = SplitMix64::new(args.seed ^ 0xC4A5_4B0A);
    let mut kills = 0u64;

    for cycle in 0..args.kill_cycles {
        let fault_seed = args.seed.wrapping_add(cycle).wrapping_mul(0x2545_F491);
        let daemon = spawn_goccd(bin, mode, &dir, Some((fault_seed, args.crash_rate)))?;
        let mut client = SoakClient::connect(daemon.port)?;
        let mut died = false;
        for _ in 0..args.cycle_ops {
            let key = format!("bk-{}", rng.below(24));
            let hist = oracle.entry(key.clone()).or_default();
            let req = issue_op(&mut rng, &key, hist);
            match client.call(&req) {
                Ok(Response::Error { message }) => {
                    return Err(format!("cycle {cycle}: server error: {message}"));
                }
                Ok(_) => hist.acked = Some(hist.states.len() - 1),
                Err(_) => {
                    // The abort fired mid-call: the in-flight op stays
                    // issued-but-unacked. Reap the corpse.
                    died = true;
                    break;
                }
            }
            live.beats.fetch_add(1, Ordering::Relaxed);
        }
        if died {
            let mut d = daemon;
            let deadline = Instant::now() + Duration::from_secs(30);
            loop {
                match d.child.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    _ => {
                        let _ = d.child.kill();
                        let _ = d.child.wait();
                        break;
                    }
                }
            }
            kills += 1;
            let (daemon, mut client) =
                verify_recovery(bin, mode, &dir, &mut oracle, &format!("kill {kills}"))?;
            shutdown_daemon(daemon, &mut client)?;
        } else {
            // The schedule never fired this cycle; end it gracefully so
            // the next cycle's seed gets its chance.
            shutdown_daemon(daemon, &mut client)?;
        }
        live.beats.fetch_add(1, Ordering::Relaxed);
    }
    if kills == 0 {
        return Err(format!(
            "no seeded kill fired in {} cycles of {} ops — the end-to-end phase \
             verified nothing (raise --crash-rate or --cycle-ops)",
            args.kill_cycles, args.cycle_ops
        ));
    }

    // Final exactness: a fault-free run of acked writes, FLUSH, graceful
    // shutdown, restart — now nothing is in flight, so recovery must
    // match the client state *exactly*, not merely admit it.
    let (daemon, mut client) = verify_recovery(bin, mode, &dir, &mut oracle, "final recovery")?;
    for i in 0..64u64 {
        let key = format!("bk-{}", i % 24);
        let hist = oracle.entry(key.clone()).or_default();
        let req = issue_op(&mut rng, &key, hist);
        match client.call(&req) {
            Ok(Response::Error { message }) => {
                return Err(format!("final writes: server error: {message}"))
            }
            Ok(_) => hist.acked = Some(hist.states.len() - 1),
            Err(e) => return Err(format!("final writes: {e}")),
        }
    }
    match client.call(&Request::Flush)? {
        Response::Flushed { durable_lsn } if durable_lsn > 0 => {}
        other => return Err(format!("FLUSH answered {other:?}")),
    }
    shutdown_daemon(daemon, &mut client)?;
    let daemon = spawn_goccd(bin, mode, &dir, None)?;
    let mut client = SoakClient::connect(daemon.port)?;
    for (key, hist) in &oracle {
        let got = match client.call(&Request::Get {
            key: key.as_bytes(),
        })? {
            Response::Value { found, value } => found.then_some(value),
            other => return Err(format!("final GET: {other:?}")),
        };
        if got != hist.current() {
            return Err(format!(
                "mode {}: graceful restart diverged on {key}: got {got:?}, want {:?}",
                mode_name(mode),
                hist.current()
            ));
        }
    }
    shutdown_daemon(daemon, &mut client)?;
    let _ = std::fs::remove_dir_all(&dir);
    println!(
        "phase 2 kill ({:<4})  OK  cycles={} kills={kills} keys={}",
        mode_name(mode),
        args.kill_cycles,
        oracle.len()
    );
    Ok(())
}

// ---------------------------------------------------------------- main --

fn run(args: &Args) -> Result<(), String> {
    let modes: Vec<Mode> = match args.mode {
        Some(m) => vec![m],
        None => vec![Mode::Lock, Mode::Gocc],
    };
    let live = start_liveness_monitor(Duration::from_secs(args.stall_secs.max(5)));
    let t0 = Instant::now();

    for &mode in &modes {
        phase1_sim(args, mode, &live)?;
    }
    match &args.goccd {
        Some(bin) if std::path::Path::new(bin).exists() => {
            for &mode in &modes {
                phase2_kill(args, bin, mode, &live)?;
            }
        }
        Some(bin) => {
            return Err(format!(
                "goccd binary not found at {bin} (build release first)"
            ))
        }
        None => println!("phase 2 kill        SKIP (--goccd none)"),
    }

    live.done.store(true, Ordering::Relaxed);
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
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    gocc_gosync::set_procs(8);
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("crash_soak: FAIL: {msg}");
            ExitCode::FAILURE
        }
    }
}
