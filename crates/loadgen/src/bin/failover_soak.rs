//! `failover_soak` — kill the primary mid-load and prove the replication
//! guarantees end to end, first with an operator promoting the
//! successor, then with no operator at all.
//!
//! Topology of the two kill phases, per mode: one real `goccd` **child
//! process** as the primary (WAL-backed, `--repl-accept --repl-min-acks
//! 2`) plus two **in-process** replicas following it over replication
//! streams with seeded transport faults. A sequential writer drives
//! SET/DEL through a [`ClusterClient`] and records, per key, every issued
//! post-state and the index of the last acknowledged one ([`KeyHist`]);
//! mid-load the primary is SIGKILLed. (The load is SET/DEL only — their
//! post-states are history-independent, so a write the failover window
//! swallowed client-side cannot poison the predictions that follow,
//! unlike INCR, whose end-to-end story `crash_soak` already covers.)
//! Every claim below is a hard failure.
//!
//! **Manual phase** — the operator path: after a deliberate primary-less
//! window the highest-version replica is promoted over the wire with
//! `REPL_PROMOTE` and the other repointed at it.
//!
//! 1. **No acked write is lost.** With `min_acks = 2` an ack means both
//!    replicas applied the write, so whichever is promoted must still
//!    serve it: every key read back from the new primary must be an
//!    issued state at or after its last acked one.
//! 2. **Reads stay available and staleness is bounded.** Reader threads
//!    round-robin GETs across all endpoints for the whole run; they must
//!    keep succeeding *during* the primary outage (replicas serve reads),
//!    and after failover the repointed replica must converge to the new
//!    primary's exact state within a deadline.
//! 3. **Recovery is bounded.** The first acked write after the kill must
//!    land within `--recovery-deadline-ms`, via redirects alone — the
//!    writer is never told where the new primary is.
//!
//! **Auto phase** — the same kill with **no promote call anywhere**: the
//! replicas (`repl_auto_promote`, each with its own data dir, so the
//! replica-side WAL is in the acked path) must detect the silence, hold
//! a quorum election and fence the old epoch by themselves.
//!
//! 1. **No acked write is lost**, as above, against the self-elected
//!    primary.
//! 2. **Exactly one new primary per epoch.** A monitor polls both
//!    replicas' in-process state every few milliseconds from the kill on:
//!    two simultaneous primaries is split brain. At the end the loser
//!    must follow the winner at the winner's epoch.
//! 3. **Read-your-writes is never violated.** A session writer drives
//!    `SET_S`, pockets the `(shard, version)` tokens, and immediately
//!    session-reads each key back through the cluster (floor-carrying
//!    `GET_S`, `Behind` rotates). Every successful session read must
//!    return a state at or after the session's last acked write.
//! 4. **Detection + promotion is bounded.** From SIGKILL to the first
//!    replica reporting role=primary must be under `--detect-deadline-ms`;
//!    the phase line prints detection, promotion and write-unavailability
//!    separately, per mode.
//! 5. **A deposed primary's stale epoch is fenced.** The killed primary
//!    is restarted from its own data dir (it boots believing it is a
//!    primary, at epoch 0). It must refuse writes (lease fencing: no
//!    live subscribers), and a replica deliberately repointed at it must
//!    reject its stream (`stale_epoch_rejects` climbs) without applying
//!    a single batch, then reconverge once repointed back at the winner.
//!
//! **Fencing phase** — the split-brain guard on the primary's own clock:
//! a `min_acks = 1` primary whose only replica is shut down must stop
//! acknowledging within its lease (writes fail "fenced" — no coordinator
//! tells it), and must resume once a fresh replica attaches and resyncs.
//!
//! Exit codes: 1 = harness error, 2 = liveness watchdog, 4 = a
//! replication guarantee was violated.
//!
//! ```console
//! $ failover_soak --seed 2026 --mode both --load-ops 1200
//! ```

use std::collections::HashMap;
use std::path::Path;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gocc_faultplane::{TransportFaultPlan, TransportMix};
use gocc_loadgen::soak::{
    self, check_oracle, get_value, issue_op, repl_call, repl_stats, spawn_node, version_sum,
    violation, Daemon, Flags, KeyHist, Liveness, Oracle, SoakResult, TempDir,
};
use gocc_loadgen::{ClientConfig, ClusterClient, ResilientClient, Session};
use gocc_server::{mode_name, Mode, ServerConfig, ServerState};
use gocc_telemetry::{JsonValue, SplitMix64};
use gocc_wire::{ReplRequest, Request, Response};

const NAME: &str = "failover_soak";

// ---------------------------------------------------------------- args --

struct Args {
    seed: u64,
    /// None = both modes.
    mode: Option<Mode>,
    /// Sequential writer ops per kill phase (the kill fires halfway).
    load_ops: u64,
    /// Distinct keys the writer cycles over.
    keys: u64,
    /// Per-op fault probability on the replication streams (0 = off).
    fault_rate: f64,
    /// Manual phase: how long the controller waits between the kill and
    /// the promotion, a deliberate primary-less window in which replicas
    /// alone must carry reads.
    outage_hold: Duration,
    /// Manual phase: kill → first-acked-write bound.
    recovery_deadline: Duration,
    /// Auto phase: SIGKILL → first replica reporting role=primary.
    detect_deadline: Duration,
    /// Bound on the non-promoted replica converging after failover.
    converge_deadline: Duration,
    goccd: String,
    stall_secs: u64,
}

fn parse(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        seed: 2026,
        mode: None,
        load_ops: 1200,
        keys: 24,
        fault_rate: 0.02,
        outage_hold: Duration::from_millis(250),
        recovery_deadline: Duration::from_secs(5),
        detect_deadline: Duration::from_secs(5),
        converge_deadline: Duration::from_secs(3),
        goccd: "./target/release/goccd".to_string(),
        stall_secs: 60,
    };
    Flags::new(NAME)
        .seed(&mut args.seed)
        .mode(&mut args.mode)
        .num("--load-ops", "N", &mut args.load_ops)
        .num("--keys", "N", &mut args.keys)
        .num("--fault-rate", "F", &mut args.fault_rate)
        .millis("--outage-hold-ms", &mut args.outage_hold)
        .millis("--recovery-deadline-ms", &mut args.recovery_deadline)
        .millis("--detect-deadline-ms", &mut args.detect_deadline)
        .millis("--converge-deadline-ms", &mut args.converge_deadline)
        .goccd(&mut args.goccd)
        .stall_secs(&mut args.stall_secs)
        .parse(raw)?;
    if args.load_ops < 100 || args.keys == 0 {
        return Err("--load-ops must be >= 100 and --keys >= 1".into());
    }
    Ok(args)
}

// ------------------------------------------------------------- topology --

/// The child-process primary of a kill phase.
fn spawn_primary(args: &Args, mode: Mode, dir: &Path) -> Result<Daemon, String> {
    let mut cmd = Daemon::command(&args.goccd, mode, dir);
    cmd.args(["--repl-accept", "--repl-min-acks", "2"]);
    cmd.args(["--repl-lease-ms", "400", "--repl-ack-timeout-ms", "2000"]);
    Daemon::spawn(cmd)
}

/// An in-process replica whose replication stream carries the seeded
/// transport faults.
fn replica_config(args: &Args, mode: Mode, primary_port: u16, salt: u64) -> ServerConfig {
    let fault_plan = (args.fault_rate > 0.0).then(|| {
        Arc::new(TransportFaultPlan::new(
            args.seed ^ (salt + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            TransportMix::uniform(args.fault_rate),
        ))
    });
    ServerConfig {
        repl_fault_plan: fault_plan,
        // Distinct per-replica seed: the suspicion jitter staggers the
        // detectors so simultaneous candidacies resolve quickly.
        repl_seed: args.seed ^ salt.wrapping_mul(0xD1B5_4A32_D192_ED03),
        repl_suspect: Duration::from_millis(300),
        ..soak::replica_config(mode, 2, 4096, primary_port)
    }
}

fn repl_u64(repl: &JsonValue, field: &str) -> u64 {
    repl.get(field).and_then(JsonValue::as_f64).unwrap_or(0.0) as u64
}

/// Whether a write's answer acknowledges it. A failed call and fenced,
/// timed-out and shed answers are honest non-acks; anything else is an
/// ack.
fn acked(answer: std::io::Result<Response<'_>>) -> bool {
    !matches!(
        answer,
        Err(_)
            | Ok(Response::Error { .. } | Response::Overloaded { .. } | Response::DeadlineExceeded)
    )
}

// --------------------------------------------------------- manual phase --

#[derive(Default)]
struct ReadTallies {
    ok: AtomicU64,
    err: AtomicU64,
    during_outage: AtomicU64,
}

#[allow(clippy::too_many_lines)]
fn manual_phase(args: &Args, mode: Mode, live: &Liveness) -> SoakResult<()> {
    let dir = TempDir::new(&format!("failover-primary-{}", mode_name(mode)));
    let mut primary = spawn_primary(args, mode, dir.path())?;
    let r1 = spawn_node("replica", replica_config(args, mode, primary.port(), 1))?;
    let r2 = spawn_node("replica", replica_config(args, mode, primary.port(), 2))?;
    let replica_ports = [r1.port(), r2.port()];
    let all_ports = vec![primary.port(), r1.port(), r2.port()];

    // min_acks = 2: the primary is fenced until both replicas subscribe.
    let subscribed = || Ok(repl_u64(&repl_stats(primary.port())?, "subscribers") >= 2);
    if !live.wait_for(Duration::from_secs(10), subscribed)? {
        return Err("replicas never subscribed to the primary".into());
    }

    // Readers: round-robin GETs across every endpoint, all phases.
    let stop = AtomicBool::new(false);
    let outage = AtomicBool::new(false);
    let tallies = ReadTallies::default();

    let result: SoakResult<(Oracle, Duration, u16)> = std::thread::scope(|s| {
        for t in 0..2u64 {
            let (stop, outage, tallies, ports) = (&stop, &outage, &tallies, &all_ports);
            let seed = args.seed ^ (t + 1).wrapping_mul(0xD1B5_4A32_D192_ED03);
            s.spawn(move || {
                let mut cluster = ClusterClient::new(ports, ClientConfig::chaos(), seed);
                let mut rng = SplitMix64::new(seed);
                let mut keybuf = String::new();
                while !stop.load(Ordering::Relaxed) {
                    use std::fmt::Write as _;
                    keybuf.clear();
                    let _ = write!(keybuf, "fk-{}", rng.below(64));
                    let get = Request::Get {
                        key: keybuf.as_bytes(),
                    };
                    match cluster.read(&get) {
                        Ok(_) => {
                            tallies.ok.fetch_add(1, Ordering::Relaxed);
                            if outage.load(Ordering::Relaxed) {
                                tallies.during_outage.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        Err(_) => {
                            tallies.err.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    live.beat();
                }
            });
        }

        // The sequential oracle writer (this thread).
        let mut run = || -> SoakResult<(Oracle, Duration, u16)> {
            let mut cluster =
                ClusterClient::new(&all_ports, ClientConfig::chaos(), args.seed ^ 0xF417);
            let mut rng = SplitMix64::new(args.seed ^ 0xFA11_07E6);
            let mut oracle = Oracle::new();
            let kill_at = args.load_ops / 2;
            let mut t_kill: Option<Instant> = None;
            let mut recovery: Option<Duration> = None;
            let mut new_primary_port: Option<u16> = None;
            let mut fault_evidence = 0u64;

            for i in 0..args.load_ops {
                live.beat();
                if i == kill_at {
                    // SIGKILL mid-load: no drain, no goodbye.
                    primary.kill()?;
                    t_kill = Some(Instant::now());
                    outage.store(true, Ordering::Relaxed);

                    // Hold the primary-less window open: replicas alone
                    // carry reads here, which is the availability claim
                    // the reader tallies prove.
                    let hold_until = Instant::now() + args.outage_hold;
                    while Instant::now() < hold_until {
                        std::thread::sleep(Duration::from_millis(10));
                        live.beat();
                    }

                    // Controller: promote the replica with the highest
                    // replicated version, repoint the other.
                    let mut best = (0usize, 0u64);
                    for (idx, &port) in replica_ports.iter().enumerate() {
                        let repl = repl_stats(port)?;
                        fault_evidence += repl_u64(&repl, "reconnects")
                            + repl_u64(&repl, "naks_sent")
                            + repl_u64(&repl, "snap_resyncs");
                        let sum = version_sum(&repl);
                        if sum >= best.1 {
                            best = (idx, sum);
                        }
                    }
                    let winner = replica_ports[best.0];
                    let loser = replica_ports[1 - best.0];
                    repl_call(winner, &ReplRequest::Promote { upstream: b"" })
                        .map_err(|e| format!("promote {winner}: {e}"))?;
                    let upstream = format!("127.0.0.1:{winner}");
                    repl_call(
                        loser,
                        &ReplRequest::Promote {
                            upstream: upstream.as_bytes(),
                        },
                    )
                    .map_err(|e| format!("repoint {loser}: {e}"))?;
                    new_primary_port = Some(winner);
                }

                let key = format!("fk-{}", rng.below(args.keys));
                let hist = oracle.entry(key.clone()).or_default();
                let req = issue_op(&mut rng, &key, hist, false);
                if acked(cluster.write(&req)) {
                    hist.ack_last();
                    if let (Some(t0), None) = (t_kill, recovery) {
                        recovery = Some(t0.elapsed());
                        outage.store(false, Ordering::Relaxed);
                    }
                }
            }

            // Reap the corpse.
            let _ = primary.wait_exit(Duration::from_secs(5));
            if args.fault_rate > 0.0 && fault_evidence == 0 {
                return Err(format!(
                    "fault rate {} injected on the replication streams but no reconnect, \
                     NAK or snapshot resync was ever observed — the faults verified nothing",
                    args.fault_rate
                )
                .into());
            }
            let recovery = recovery.ok_or_else(|| {
                violation(format!(
                    "no write was ever acknowledged after the kill ({} attempts)",
                    args.load_ops - kill_at
                ))
            })?;
            if recovery > args.recovery_deadline {
                return Err(violation(format!(
                    "recovery took {recovery:?}, deadline {:?}",
                    args.recovery_deadline
                )));
            }
            Ok((oracle, recovery, new_primary_port.expect("set at kill_at")))
        };
        let r = run();
        stop.store(true, Ordering::Relaxed);
        r
    });
    let (mut oracle, recovery, new_primary) = result?;
    let repointed = *replica_ports
        .iter()
        .find(|&&p| p != new_primary)
        .expect("two replicas");

    // Claim 1: no acked write lost. Every key on the new primary must be
    // an issued state at or after its last acked one.
    let acked_keys = oracle.values().filter(|h| h.is_acked()).count();
    if acked_keys == 0 {
        return Err("no key ever got an acked write — the oracle verified nothing".into());
    }
    let mut client = ResilientClient::new(new_primary, ClientConfig::default(), args.seed);
    // Rebaseline on what survived: it is the truth going forward.
    let whence = format!("on the promoted primary ({})", mode_name(mode));
    check_oracle(&mut oracle, &whence, true, |key| {
        get_value(&mut client, key)
    })?;

    // The new primary must identify as one, and the old role is gone.
    let repl = repl_stats(new_primary)?;
    if repl.get("role").and_then(JsonValue::as_str) != Some("primary") {
        return Err(violation(format!(
            "promoted node {new_primary} does not report role=primary"
        )));
    }

    // Claim 2b: bounded staleness after failover — a final round of acked
    // writes on the new primary must appear on the repointed replica
    // within the convergence deadline.
    let mut rng = SplitMix64::new(args.seed ^ 0xC0_4E_56_E9);
    for i in 0..64u64 {
        let key = format!("fk-{}", i % args.keys);
        let hist = oracle.entry(key.clone()).or_default();
        let req = issue_op(&mut rng, &key, hist, false);
        if !acked(client.call(&req)) {
            return Err(format!("post-failover write on {key} was not acked").into());
        }
        hist.ack_last();
        live.beat();
    }
    let mut replica_client = ResilientClient::new(repointed, ClientConfig::default(), args.seed);
    let mut lagging = None;
    let converged = live.wait_for(args.converge_deadline, || {
        lagging = None;
        for (key, hist) in &oracle {
            if get_value(&mut replica_client, key)? != hist.current() {
                lagging = Some(key.clone());
                break;
            }
        }
        Ok(lagging.is_none())
    })?;
    if !converged {
        return Err(violation(format!(
            "repointed replica did not converge within {:?} (key {lagging:?} still stale)",
            args.converge_deadline
        )));
    }
    let repl = repl_stats(repointed)?;
    let upstream = repl.get("upstream").and_then(JsonValue::as_str);
    if upstream != Some(&format!("127.0.0.1:{new_primary}")) {
        return Err(violation(format!(
            "repointed replica follows {upstream:?}, expected the promoted primary"
        )));
    }

    // Claim 2a: reads kept flowing while the primary was down.
    let reads_ok = tallies.ok.load(Ordering::Relaxed);
    let reads_err = tallies.err.load(Ordering::Relaxed);
    let reads_outage = tallies.during_outage.load(Ordering::Relaxed);
    if reads_outage == 0 {
        return Err(violation(
            "no read succeeded during the primary outage — replicas did not carry reads",
        ));
    }
    if reads_err > reads_ok / 100 {
        return Err(violation(format!(
            "reader error rate too high: {reads_err} errors vs {reads_ok} successes"
        )));
    }

    // Teardown: both in-process nodes (promoted primary included) shut
    // down cleanly.
    soak::stop(r1);
    soak::stop(r2);
    println!(
        "failover ({:<4})  OK  recovery={recovery:?} acked_keys={acked_keys} \
         reads_during_outage={reads_outage} reads={reads_ok}",
        mode_name(mode),
    );
    Ok(())
}

// ----------------------------------------------------------- auto phase --

/// What the in-process poller measured around the kill.
#[derive(Default)]
struct FailoverTimes {
    /// SIGKILL → first suspicion counted on either replica.
    detection: Option<Duration>,
    /// SIGKILL → first replica holding role=primary.
    promotion: Option<Duration>,
    /// Both replicas primary at once (split brain) observed.
    split_brain: bool,
}

/// Polls both replicas' in-process state every ~3 ms from the moment of
/// the kill: first suspicion = detection, first promotion = promotion,
/// and a continuous exactly-one-primary check.
fn monitor_failover(
    r1: &ServerState,
    r2: &ServerState,
    t_kill: Instant,
    deadline: Duration,
    live: &Liveness,
) -> FailoverTimes {
    let base = r1.repl_suspicions() + r2.repl_suspicions();
    let mut times = FailoverTimes::default();
    while t_kill.elapsed() < deadline {
        if times.detection.is_none() && r1.repl_suspicions() + r2.repl_suspicions() > base {
            times.detection = Some(t_kill.elapsed());
        }
        let (p1, p2) = (!r1.is_replica(), !r2.is_replica());
        if p1 && p2 {
            times.split_brain = true;
            return times;
        }
        if times.promotion.is_none() && (p1 || p2) {
            // A suspicion necessarily preceded the promotion; if the
            // poll missed the counter flip, pin detection here.
            if times.detection.is_none() {
                times.detection = Some(t_kill.elapsed());
            }
            times.promotion = Some(t_kill.elapsed());
            return times;
        }
        live.beat();
        std::thread::sleep(Duration::from_millis(3));
    }
    times
}

#[allow(clippy::too_many_lines)]
fn auto_phase(args: &Args, mode: Mode, live: &Liveness) -> SoakResult<()> {
    let pdir = TempDir::new(&format!("autofailover-primary-{}", mode_name(mode)));
    let r1dir = TempDir::new(&format!("autofailover-replica1-{}", mode_name(mode)));
    let r2dir = TempDir::new(&format!("autofailover-replica2-{}", mode_name(mode)));
    let mut primary = spawn_primary(args, mode, pdir.path())?;
    let electing_replica = |salt: u64, dir: &TempDir| {
        let config = ServerConfig {
            repl_auto_promote: true,
            data_dir: Some(dir.path().to_path_buf()),
            ..replica_config(args, mode, primary.port(), salt)
        };
        spawn_node("replica", config)
    };
    let r1 = electing_replica(1, &r1dir)?;
    let r2 = electing_replica(2, &r2dir)?;
    // Electorate per replica: the other replica plus the (doomed)
    // primary. Majority of 3 is 2, reachable once the survivors vote for
    // one of themselves.
    for (node, other) in [(&r1, &r2), (&r2, &r1)] {
        node.state().set_repl_peers(vec![
            format!("127.0.0.1:{}", other.port()),
            format!("127.0.0.1:{}", primary.port()),
        ]);
    }
    let (s1, s2) = (r1.state_arc(), r2.state_arc());
    let all_ports = vec![primary.port(), r1.port(), r2.port()];

    // min_acks = 2: wait out the boot fence by probing an actual write.
    let mut probe = ResilientClient::new(primary.port(), ClientConfig::default(), args.seed ^ 0xB0);
    let boot_probe = Request::Set {
        key: b"boot-probe",
        value: 1,
        ttl: 0,
    };
    let unfenced = live.wait_for(Duration::from_secs(10), || {
        Ok(matches!(probe.call(&boot_probe), Ok(Response::Done)))
    })?;
    if !unfenced {
        return Err("primary never unfenced (replicas did not subscribe)".into());
    }
    drop(probe);

    // Sequential controller: plain oracle writes + a RYW session, with
    // the SIGKILL halfway and the in-process failover monitor at the
    // kill. No promote call anywhere.
    let mut cluster = ClusterClient::new(&all_ports, ClientConfig::chaos(), args.seed ^ 0xF417);
    let mut rng = SplitMix64::new(args.seed ^ 0xFA11_07E6);
    let mut oracle = Oracle::new();
    let mut session = Session::new();
    let mut session_hist: HashMap<String, KeyHist> = HashMap::new();
    let mut session_reads = 0u64;
    let kill_at = args.load_ops / 2;
    let mut times = FailoverTimes::default();
    let mut t_kill: Option<Instant> = None;
    let mut unavailability: Option<Duration> = None;

    for i in 0..args.load_ops {
        live.beat();
        if i == kill_at {
            primary.kill()?;
            let t0 = Instant::now();
            t_kill = Some(t0);
            times = monitor_failover(&s1, &s2, t0, args.detect_deadline, live);
            if times.split_brain {
                return Err(violation("split brain: both replicas promoted themselves"));
            }
            let Some(promotion) = times.promotion else {
                return Err(violation(format!(
                    "no replica auto-promoted itself within {:?} \
                     (suspicions observed: {})",
                    args.detect_deadline,
                    s1.repl_suspicions() + s2.repl_suspicions(),
                )));
            };
            if promotion > args.detect_deadline {
                return Err(violation(format!(
                    "detection+promotion took {promotion:?}, deadline {:?}",
                    args.detect_deadline
                )));
            }
        }

        // Plain oracle op.
        let key = format!("ak-{}", rng.below(args.keys));
        let hist = oracle.entry(key.clone()).or_default();
        let req = issue_op(&mut rng, &key, hist, false);
        if acked(cluster.write(&req)) {
            hist.ack_last();
            if let (Some(t0), None) = (t_kill, unavailability) {
                unavailability = Some(t0.elapsed());
            }
        }

        // RYW session op every few iterations: write, then read back
        // through the cluster and hold it to the session's floor.
        if i % 4 == 0 {
            let skey = format!("ryw-{}", i % 8);
            let shist = session_hist.entry(skey.clone()).or_default();
            shist.issue(Some(i));
            let written = cluster.write_session(&mut session, skey.as_bytes(), i, 0);
            if matches!(written, Ok(Response::DoneAt { .. })) {
                shist.ack_last();
            }
            // A session read may fail outright only while no node is
            // reachable; with two live replicas serving floor-checked
            // reads this must not happen.
            let got = match cluster.read_session(&session, skey.as_bytes()) {
                Ok(Response::Value { found, value }) => found.then_some(value),
                Ok(other) => return Err(format!("session read answered {other:?}").into()),
                Err(_) => {
                    return Err(violation(format!(
                        "session read of {skey} found no endpoint satisfying the floor (op {i})"
                    )))
                }
            };
            session_reads += 1;
            if !shist.admits(got) {
                return Err(violation(format!(
                    "read-your-writes violated on {skey}: got {got:?}, {shist} (op {i})"
                )));
            }
        }
    }
    let _ = primary.wait_exit(Duration::from_secs(5));
    let unavailability =
        unavailability.ok_or_else(|| violation("no write was ever acknowledged after the kill"))?;

    // Epoch oracle: exactly one primary, the loser follows it at the
    // same epoch.
    let (winner, loser, wstate, lstate) = if !s1.is_replica() {
        (&r1, &r2, &s1, &s2)
    } else if !s2.is_replica() {
        (&r2, &r1, &s2, &s1)
    } else {
        return Err(violation(
            "promotion observed during the run but no replica is primary now",
        ));
    };
    if !lstate.is_replica() {
        return Err(violation(
            "split brain at end of load: both replicas primary",
        ));
    }
    let epoch = wstate.epoch();
    if epoch == 0 {
        return Err(violation("promotion did not advance the epoch"));
    }
    let winner_addr = format!("127.0.0.1:{}", winner.port());
    let follows = || Ok(lstate.epoch() == epoch && lstate.upstream_hint() == winner_addr);
    if !live.wait_for(args.converge_deadline, follows)? {
        return Err(violation(format!(
            "loser never adopted epoch {epoch} / repointed at the winner \
             (epoch {}, upstream {:?})",
            lstate.epoch(),
            lstate.upstream_hint()
        )));
    }

    // No-acked-write-lost oracle against the self-elected primary.
    if !oracle.values().any(|h| h.is_acked()) {
        return Err("no key ever got an acked write — the oracle verified nothing".into());
    }
    let mut wclient = ResilientClient::new(winner.port(), ClientConfig::default(), args.seed);
    let whence = format!("on the self-elected primary ({})", mode_name(mode));
    check_oracle(&mut oracle, &whence, false, |key| {
        get_value(&mut wclient, key)
    })?;

    // Rejoin: the deposed primary comes back from its own data dir,
    // believing it is a primary at epoch 0.
    let rejoined = spawn_primary(args, mode, pdir.path())?;
    // Lease fencing half: no live subscribers, so it must refuse writes.
    let poison = Request::Set {
        key: b"poison",
        value: 666,
        ttl: 0,
    };
    match soak::connect(rejoined.port())?.call(&poison)? {
        Response::Error { .. } => {}
        other => {
            return Err(violation(format!(
                "rejoined deposed primary acked a write with no live replicas: {other:?}"
            )));
        }
    }
    // Epoch fencing half: a replica pointed at the stale primary must
    // reject its stream without applying anything.
    let stale_base = lstate.repl_stale_epoch_rejects();
    let old_upstream = format!("127.0.0.1:{}", rejoined.port());
    repl_call(
        loser.port(),
        &ReplRequest::Promote {
            upstream: old_upstream.as_bytes(),
        },
    )
    .map_err(|e| format!("repoint loser at deposed primary: {e}"))?;
    let rejected = || Ok(lstate.repl_stale_epoch_rejects() > stale_base);
    if !live.wait_for(Duration::from_secs(5), rejected)? {
        return Err(violation(
            "replica never rejected the deposed primary's stale epoch",
        ));
    }
    if lstate.epoch() != epoch {
        return Err(violation(format!(
            "replica's epoch moved ({} -> {}) while following a stale primary",
            epoch,
            lstate.epoch()
        )));
    }
    // Repoint home and prove the loser still converges to the winner.
    repl_call(
        loser.port(),
        &ReplRequest::Promote {
            upstream: winner_addr.as_bytes(),
        },
    )
    .map_err(|e| format!("repoint loser at winner: {e}"))?;
    wclient
        .call(&Request::Set {
            key: b"rejoin-sentinel",
            value: 4242,
            ttl: 0,
        })
        .map_err(|e| format!("sentinel write: {e}"))?;
    let mut lclient = ResilientClient::new(loser.port(), ClientConfig::default(), args.seed);
    let reconverged = live.wait_for(args.converge_deadline, || {
        Ok(get_value(&mut lclient, "rejoin-sentinel")? == Some(4242))
    })?;
    if !reconverged {
        return Err(violation(format!(
            "loser did not reconverge to the winner within {:?} after the rejoin detour",
            args.converge_deadline
        )));
    }

    // Teardown.
    drop(rejoined);
    let detection = times.detection.expect("promotion implies detection");
    let promotion = times.promotion.expect("checked at kill");
    let elections = s1.repl_elections() + s2.repl_elections();
    let stale_epoch_rejects = s1.repl_stale_epoch_rejects() + s2.repl_stale_epoch_rejects();
    soak::stop(r1);
    soak::stop(r2);
    println!(
        "auto_failover ({:<4})  OK  detection={detection:?} promotion={promotion:?} \
         unavailability={unavailability:?} epoch={epoch} elections={elections} \
         stale_epoch_rejects={stale_epoch_rejects} session_reads={session_reads}",
        mode_name(mode),
    );
    Ok(())
}

// -------------------------------------------------------- fencing phase --

/// The split-brain guard, timed on the primary's own clock: with
/// `min_acks = 1` and its only replica gone, the primary must stop
/// acknowledging within the lease, keep refusing while partitioned, and
/// resume once a fresh replica attaches.
fn fencing_phase(args: &Args, mode: Mode, live: &Liveness) -> SoakResult<()> {
    const LEASE: Duration = Duration::from_millis(200);
    let primary = spawn_node(
        "fencing primary",
        ServerConfig {
            repl_min_acks: 1,
            repl_lease: LEASE,
            repl_ack_timeout: Duration::from_millis(500),
            ..soak::primary_config(mode, 2, 4096)
        },
    )?;
    let pport = primary.port();
    let mut client = ResilientClient::new(pport, ClientConfig::default(), args.seed ^ 0xFE);

    let fenced_now = |client: &mut ResilientClient| -> Result<bool, String> {
        let probe = Request::Set {
            key: b"fence-probe",
            value: 7,
            ttl: 0,
        };
        match client
            .call(&probe)
            .map_err(|e| format!("fence probe: {e}"))?
        {
            Response::Error { message } if message.contains("fenced") => Ok(true),
            Response::Done => Ok(false),
            other => Err(format!("fence probe answered {other:?}")),
        }
    };

    // Boot state: no replica has ever acked, so the primary starts fenced.
    if !fenced_now(&mut client)? {
        return Err(violation(
            "a min_acks=1 primary with no replica acked a write at boot",
        ));
    }

    // Attach a replica: writes must start flowing.
    let r1 = spawn_node("replica", replica_config(args, mode, pport, 3))?;
    if !live.wait_for(Duration::from_secs(5), || Ok(!fenced_now(&mut client)?))? {
        return Err(violation(
            "primary stayed fenced after its replica subscribed",
        ));
    }
    for i in 0..50u64 {
        client
            .call(&Request::Set {
                key: format!("fz-{}", i % 8).as_bytes(),
                value: i,
                ttl: 0,
            })
            .map_err(|e| format!("steady write: {e}"))?;
        live.beat();
    }

    // Partition: the only replica goes away. The primary must fence
    // itself within the lease window — nobody tells it.
    soak::stop(r1);
    let t0 = Instant::now();
    if !live.wait_for(LEASE * 10, || fenced_now(&mut client))? {
        return Err(violation(format!(
            "primary kept acking {:?} after losing its only replica (lease {LEASE:?})",
            t0.elapsed()
        )));
    }
    // And it must *stay* fenced while the partition lasts.
    let hold = Instant::now() + LEASE * 3;
    while Instant::now() < hold {
        if !fenced_now(&mut client)? {
            return Err(violation(
                "primary acked a write while partitioned from every replica",
            ));
        }
        std::thread::sleep(Duration::from_millis(20));
        live.beat();
    }
    let repl = repl_stats(pport)?;
    if !matches!(repl.get("fenced"), Some(JsonValue::Bool(true))) {
        return Err(violation("STATS does not report fenced=true"));
    }
    if repl_u64(&repl, "fenced_rejects") == 0 {
        return Err(violation("no fenced_rejects counted during the partition"));
    }

    // Heal: a fresh replica attaches, resyncs from snapshot, and the
    // primary resumes.
    let r2 = spawn_node("replica", replica_config(args, mode, pport, 4))?;
    if !live.wait_for(Duration::from_secs(5), || Ok(!fenced_now(&mut client)?))? {
        return Err(violation(
            "primary stayed fenced after a fresh replica attached",
        ));
    }
    // The late joiner must have actually resynced the pre-partition data.
    let mut rclient = ResilientClient::new(r2.port(), ClientConfig::default(), args.seed);
    let resynced = live.wait_for(Duration::from_secs(3), || {
        Ok(get_value(&mut rclient, "fz-7")? == Some(47))
    })?;
    if !resynced {
        return Err(violation(
            "late replica never served the pre-partition writes",
        ));
    }

    soak::stop(r2);
    soak::stop(primary);
    println!("fencing  ({:<4})  OK  lease={LEASE:?}", mode_name(mode));
    Ok(())
}

// ---------------------------------------------------------------- main --

fn run(args: &Args) -> SoakResult<()> {
    let live = Liveness::start(NAME, args.stall_secs);
    let t0 = Instant::now();
    for mode in soak::modes(args.mode) {
        manual_phase(args, mode, &live)?;
        auto_phase(args, mode, &live)?;
        fencing_phase(args, mode, &live)?;
    }
    live.finish();
    println!(
        "failover_soak PASS  seed={} load_ops={} fault_rate={} {:?}",
        args.seed,
        args.load_ops,
        args.fault_rate,
        t0.elapsed()
    );
    Ok(())
}

fn main() -> ExitCode {
    soak::main(NAME, parse, run)
}
