//! `repl_bench` — read throughput versus replica count.
//!
//! The serving-capacity story of replication: replicas serve
//! version-checked GETs, so a read-heavy workload can spread across the
//! whole group instead of queueing on the primary. Each cell boots an
//! in-process primary (`repl_accept`, asynchronous — `min_acks = 0`)
//! plus 0, 1 or 2 replicas, preloads the keyspace, waits for every
//! replica to reach the primary's replicated version, then drives
//! closed-loop GET clients pinned round-robin across the endpoints and
//! reports aggregate kops/s per cell, in both execution modes.
//!
//! **A 1-CPU caveat**, same as the other benches (see EXPERIMENTS.md):
//! this container gives every node the same single core, so replicas add
//! *serving endpoints* but no compute — wall-clock scaling appears on
//! real hardware, not here. The scaling ratio is still printed for
//! machines that have cores to show it; the `--gate` bounds enforce what
//! is meaningful on any box:
//!
//! * the **replication tax** — aggregate read throughput with two
//!   replicas attached (and the primary streaming to them) must stay
//!   within `REPL_GATE_SCALE_X` of the replica-free baseline, and
//! * **real distribution** — replicas must serve at least
//!   `REPL_GATE_SHARE_PCT`% of the reads in the two-replica cell, so the
//!   scaling claim is exercised rather than simulated.
//!
//! A third cell per mode measures the **read-your-writes tax**: the
//! same topology as the 2-replica cell, but every client drives
//! floor-carrying session reads (`GET_S` via [`ClusterClient`]) against
//! a private [`Session`] it keeps fresh with periodic `SET_S` writes, so
//! replicas genuinely answer `Behind` and force rotations. Its row
//! prints session kops/s, the `Behind` rotation count and the tax as a
//! ratio against the plain 2-replica read throughput (`ryw_tax`).
//!
//! Writes no file. Exit codes: 1 = harness error, 4 = an enforced gate
//! failed.
//!
//! ```console
//! $ repl_bench --window-ms 300 --gate
//! ```

use std::process::ExitCode;
use std::time::{Duration, Instant};

use gocc_loadgen::soak::{
    self, closed_loop, gate_env, primary_config, repl_stats, replica_config, spawn_node,
    version_sum, violation, Conn, Flags, SoakResult,
};
use gocc_loadgen::{ClientConfig, ClusterClient, Session};
use gocc_server::{mode_name, Mode, ServerHandle};
use gocc_telemetry::SplitMix64;
use gocc_wire::{decode_response, Request, Response};

const NAME: &str = "repl_bench";
const KEYS: u64 = 2048;
const SHARDS: usize = 4;
const REPLICA_COUNTS: [usize; 3] = [0, 1, 2];
/// Private session keys per client in the session-read cell.
const SESSION_KEYS: u64 = 64;
/// One `SET_S` floor refresh per this many session ops, so the floors
/// keep advancing and replicas genuinely lag them.
const SESSION_WRITE_EVERY: u64 = 8;

struct Args {
    window: Duration,
    /// Closed-loop GET clients, assigned endpoint `i % endpoints`.
    clients: usize,
    /// Best-of-N repeats per cell (one-sided noise, same as wal_bench).
    repeats: usize,
    gate: bool,
}

fn parse(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        window: Duration::from_millis(300),
        clients: 6,
        repeats: 2,
        gate: false,
    };
    Flags::new(NAME)
        .millis("--window-ms", &mut args.window)
        .num("--clients", "N", &mut args.clients)
        .num("--repeats", "N", &mut args.repeats)
        .switch("--gate", &mut args.gate)
        .parse(raw)?;
    if args.clients == 0 || args.repeats == 0 {
        return Err("--clients and --repeats must be >= 1".into());
    }
    Ok(args)
}

struct CellResult {
    kops: f64,
    primary_reads: u64,
    replica_reads: u64,
}

impl CellResult {
    fn replica_share_pct(&self) -> f64 {
        let total = self.primary_reads + self.replica_reads;
        if total == 0 {
            0.0
        } else {
            self.replica_reads as f64 / total as f64 * 100.0
        }
    }
}

/// An in-process primary (asynchronous replication, `min_acks = 0`)
/// plus `replicas` followers. Returns the nodes, primary first, and
/// their ports in the same order.
fn spawn_cluster(mode: Mode, replicas: usize) -> Result<(Vec<ServerHandle>, Vec<u16>), String> {
    let capacity = (KEYS * 4) as usize;
    let primary = spawn_node("primary", primary_config(mode, SHARDS, capacity))?;
    let mut nodes = vec![primary];
    for _ in 0..replicas {
        let follower = replica_config(mode, SHARDS, capacity, nodes[0].port());
        nodes.push(spawn_node("replica", follower)?);
    }
    let ports = nodes.iter().map(ServerHandle::port).collect();
    Ok((nodes, ports))
}

/// Followers first, the primary last.
fn stop_cluster(nodes: Vec<ServerHandle>) {
    for node in nodes.into_iter().rev() {
        soak::stop(node);
    }
}

/// One measured cell: primary + `replicas` followers, preloaded and
/// caught up, then `clients` closed-loop GET threads.
fn measure_cell(mode: Mode, replicas: usize, args: &Args) -> Result<CellResult, String> {
    let (nodes, ports) = spawn_cluster(mode, replicas)?;

    // Preload every key, then wait for the replicas to catch up to the
    // primary's replicated version so the measurement reads warm copies.
    {
        let mut conn = Conn::connect(ports[0])?;
        let mut rng = SplitMix64::new(0xBE4C);
        let mut keybuf = String::new();
        for k in 0..KEYS {
            use std::fmt::Write as _;
            keybuf.clear();
            let _ = write!(keybuf, "k{k}");
            let resp = conn.call(&Request::Set {
                key: keybuf.as_bytes(),
                value: rng.next_u64() >> 1,
                ttl: 0,
            })?;
            if resp != Response::Done {
                return Err(format!("preload SET answered {resp:?}"));
            }
        }
    }
    let want = version_sum(&repl_stats(ports[0])?);
    let deadline = Instant::now() + Duration::from_secs(10);
    for &port in &ports[1..] {
        while version_sum(&repl_stats(port)?) < want {
            if Instant::now() > deadline {
                return Err(format!(
                    "replica {port} never caught up to version sum {want}"
                ));
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    let per_client = closed_loop(args.clients, args.window, |t, meter| {
        let endpoint = t % ports.len();
        let mut conn = Conn::connect(ports[endpoint]).expect("connect endpoint");
        let mut rng = SplitMix64::new(0x6E7 ^ (t as u64 + 1).wrapping_mul(0x9E37_79B9));
        let mut keybuf = String::new();
        while meter.running() {
            use std::fmt::Write as _;
            keybuf.clear();
            let _ = write!(keybuf, "k{}", rng.below(KEYS));
            let got = conn
                .call(&Request::Get {
                    key: keybuf.as_bytes(),
                })
                .expect("GET");
            assert!(
                matches!(got, Response::Value { found: true, .. }),
                "warm key missing: {got:?}"
            );
            meter.done();
        }
        endpoint
    });

    stop_cluster(nodes);

    let total: u64 = per_client.iter().map(|&(_, ops)| ops).sum();
    let primary_reads: u64 = per_client
        .iter()
        .filter(|&&(e, _)| e == 0)
        .map(|&(_, ops)| ops)
        .sum();
    Ok(CellResult {
        kops: soak::kops(&per_client, args.window),
        primary_reads,
        replica_reads: total - primary_reads,
    })
}

/// The read-your-writes tax cell: primary + 2 replicas, every client a
/// closed-loop *session* reader. Each client seeds `SESSION_KEYS`
/// private keys via `SET_S` (pocketing the version tokens), then drives
/// floor-carrying session reads with one floor-advancing refresh write
/// per [`SESSION_WRITE_EVERY`] ops. Returns `(session read kops/s,
/// Behind rotations observed)` — the rotations are the tax made visible.
fn measure_session_cell(mode: Mode, args: &Args) -> Result<(f64, u64), String> {
    let (nodes, ports) = spawn_cluster(mode, 2)?;

    let per_client = closed_loop(args.clients, args.window, |t, meter| {
        let seed = 0xC11E ^ (t as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut cluster = ClusterClient::new(&ports, ClientConfig::default(), seed);
        let mut session = Session::new();
        let mut rng = SplitMix64::new(seed ^ 0x5E55);
        let mut resp = Vec::new();
        let mut keybuf = String::new();
        let seed_key = |keybuf: &mut String, k: u64| {
            use std::fmt::Write as _;
            keybuf.clear();
            let _ = write!(keybuf, "s{t}-{k}");
        };
        for k in 0..SESSION_KEYS {
            seed_key(&mut keybuf, k);
            cluster
                .write_session(&mut session, keybuf.as_bytes(), k, 0, &mut resp)
                .expect("seed session write");
        }
        let mut op = 0u64;
        while meter.running() {
            op += 1;
            seed_key(&mut keybuf, rng.below(SESSION_KEYS));
            if op % SESSION_WRITE_EVERY == 0 {
                cluster
                    .write_session(&mut session, keybuf.as_bytes(), op, 0, &mut resp)
                    .expect("session refresh write");
                continue;
            }
            cluster
                .read_session(&session, keybuf.as_bytes(), &mut resp)
                .expect("session read");
            let got = decode_response(&resp).expect("decode session read");
            assert!(
                matches!(got, Response::Value { found: true, .. }),
                "session read answered {got:?}"
            );
            meter.done();
        }
        cluster.behind_rotations()
    });

    stop_cluster(nodes);

    let behind: u64 = per_client.iter().map(|&(b, _)| b).sum();
    Ok((soak::kops(&per_client, args.window), behind))
}

fn run(args: &Args) -> SoakResult<()> {
    println!(
        "replication read throughput: {} closed-loop GET clients round-robined over \
         primary + replicas, {}ms window",
        args.clients,
        args.window.as_millis()
    );
    let mut gocc_cells: Vec<CellResult> = Vec::new();
    for mode in [Mode::Lock, Mode::Gocc] {
        println!("  {}:", mode_name(mode));
        let mut plain_two_kops = 0.0;
        for &replicas in &REPLICA_COUNTS {
            let mut best: Option<CellResult> = None;
            for _ in 0..args.repeats {
                let r = measure_cell(mode, replicas, args)?;
                if best.as_ref().is_none_or(|b| r.kops > b.kops) {
                    best = Some(r);
                }
            }
            let r = best.expect("repeats >= 1");
            println!(
                "    replicas={replicas}  {:>9.1} kops/s  replica_share={:>5.1}%",
                r.kops,
                r.replica_share_pct()
            );
            if replicas == *REPLICA_COUNTS.last().expect("non-empty") {
                plain_two_kops = r.kops;
            }
            if mode == Mode::Gocc {
                gocc_cells.push(r);
            }
        }

        // Session-read cell: same 2-replica topology, floor-carrying
        // reads. The tax ratio compares against the plain cell above.
        let (session_kops, behind) = measure_session_cell(mode, args)?;
        let ryw_tax = if plain_two_kops > 0.0 {
            session_kops / plain_two_kops
        } else {
            0.0
        };
        println!(
            "    session reads  {session_kops:>9.1} kops/s  ryw_tax={ryw_tax:.2}x \
             behind_rotations={behind}"
        );
    }

    // Gates on the gocc cells (the paper's execution mode): bounded
    // replication tax and genuine read distribution. The raw scaling
    // ratio is printed for machines with cores to exercise it. The
    // tax bound sits at ~2x the measured cost (0.67–0.76x across runs
    // on this one-core box); a real regression — replicas serializing
    // the primary — lands under 0.4x.
    let scale_x = gate_env("REPL_GATE_SCALE_X", 0.55)?;
    let share_pct = gate_env("REPL_GATE_SHARE_PCT", 25.0)?;
    let baseline = gocc_cells[0].kops;
    let two = &gocc_cells[REPLICA_COUNTS.len() - 1];
    let scale_ratio = if baseline > 0.0 {
        two.kops / baseline
    } else {
        f64::INFINITY
    };
    let share = two.replica_share_pct();
    let scale_ok = scale_ratio >= scale_x;
    let share_ok = share >= share_pct;
    println!(
        "gates (gocc): 2-replica/0-replica read throughput = {scale_ratio:.2}x \
         (need >= {scale_x:.2}x)  replica share = {share:.1}% (need >= {share_pct:.1}%)"
    );

    let mut failed = Vec::new();
    if !scale_ok {
        failed.push(format!(
            "read throughput with 2 replicas is only {scale_ratio:.2}x the replica-free \
             baseline (need {scale_x:.2}x; override REPL_GATE_SCALE_X)"
        ));
    }
    if !share_ok {
        failed.push(format!(
            "replicas served only {share:.1}% of reads (need {share_pct:.1}%; override \
             REPL_GATE_SHARE_PCT)"
        ));
    }
    if args.gate && !failed.is_empty() {
        return Err(violation(format!("GATE FAIL: {}", failed.join("; "))));
    }
    Ok(())
}

fn main() -> ExitCode {
    soak::main(NAME, parse, run)
}
