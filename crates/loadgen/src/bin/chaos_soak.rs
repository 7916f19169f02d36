//! `chaos_soak` — combined fault-schedule soak for the whole GOCC stack.
//!
//! Runs the three fault planes of `gocc-faultplane` against the layers
//! that consume them and checks the degradation guarantees the paper's
//! safety argument rests on (§5.4):
//!
//! 1. **Replay** — the same seed reproduces the *identical* fault
//!    schedule: same HTM abort draws, same mis-pairing decisions, same
//!    transport faults, byte for byte. Verified by running a fixed
//!    single-threaded driver twice and comparing fingerprints.
//! 2. **Degradation** — under elevated HTM abort injection a
//!    multithreaded cache workload must stay exactly correct versus a
//!    sequential oracle; a pathological retry policy must be bounded by
//!    the livelock watchdog (visible in telemetry); injected Lock/Unlock
//!    mis-pairings must all be detected and recovered.
//! 3. **Transport** — a real `goccd` with fault-injected sockets, driven
//!    by resilient clients, must converge on a fully correct store with
//!    zero malformed frames: faults cost connections, never data.
//!
//! A liveness watchdog thread aborts the process (exit 2) if no worker
//! makes progress for `--stall-secs`, so a deadlock or livelock fails the
//! run instead of hanging CI. A broken guarantee — oracle divergence, an
//! undetected mis-pair, a watchdog that does not engage, a replay
//! fingerprint mismatch — exits 4; a broken harness exits 1.
//!
//! ```console
//! $ chaos_soak --seed 7 --sections 300 --abort-rate 0.2 --transport-rate 0.2
//! ```

use std::collections::HashMap;
use std::io::{Cursor, Read, Write};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gocc_faultplane::{AbortMix, FaultPlane, FaultPlaneConfig, TransportMix};
use gocc_gosync::{lock_id, LockLedger};
use gocc_htm::{Tx, TxVar};
use gocc_loadgen::soak::{self, spawn_node, violation, Flags, Liveness, SoakResult};
use gocc_loadgen::{ClientConfig, ResilientClient};
use gocc_optilock::{
    call_site, critical_mutex, ElidableMutex, GoccConfig, GoccRuntime, HtmScope, LockRef, OptiLock,
};
use gocc_server::{mode_name, Mode, ServerConfig};
use gocc_telemetry::{JsonValue, SplitMix64};
use gocc_wire::{FaultyStream, Request, Response};
use gocc_workloads::gocache::Cache;
use gocc_workloads::Engine;

const NAME: &str = "chaos_soak";

// ---------------------------------------------------------------- args --

struct Args {
    seed: u64,
    /// None = both modes.
    mode: Option<Mode>,
    /// Sections (phase 2) / iterations (phase 1) per thread.
    sections: u64,
    threads: usize,
    abort_rate: f64,
    pairing_rate: f64,
    transport_rate: f64,
    /// Keys per client in the networked phase.
    net_keys: u64,
    net_clients: usize,
    stall_secs: u64,
}

fn parse(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        seed: 2026,
        mode: None,
        sections: 300,
        threads: 4,
        abort_rate: 0.2,
        pairing_rate: 0.2,
        transport_rate: 0.2,
        net_keys: 48,
        net_clients: 3,
        stall_secs: 60,
    };
    Flags::new(NAME)
        .seed(&mut args.seed)
        .mode(&mut args.mode)
        .num("--sections", "N", &mut args.sections)
        .num("--threads", "N", &mut args.threads)
        .num("--abort-rate", "F", &mut args.abort_rate)
        .num("--pairing-rate", "F", &mut args.pairing_rate)
        .num("--transport-rate", "F", &mut args.transport_rate)
        .num("--net-keys", "N", &mut args.net_keys)
        .num("--net-clients", "N", &mut args.net_clients)
        .stall_secs(&mut args.stall_secs)
        .parse(raw)?;
    if args.sections == 0 || args.threads == 0 || args.net_clients == 0 {
        return Err("--sections/--threads/--net-clients must be >= 1".into());
    }
    Ok(args)
}

fn plane_config(args: &Args) -> FaultPlaneConfig {
    FaultPlaneConfig {
        abort_mix: AbortMix::uniform(args.abort_rate),
        pairing_rate: args.pairing_rate,
        transport_mix: TransportMix::uniform(args.transport_rate),
    }
}

// --------------------------------------------- phase 1: replay by seed --

/// One deterministic single-threaded pass over all three fault planes.
/// Everything observable lands in the fingerprint; two passes with the
/// same seed must produce identical fingerprints.
///
/// The drivers use a fixed synthetic call-site id rather than
/// `call_site!()`: fault draws are keyed by site, and a `static`'s
/// address moves under ASLR, which would keep replay within a process
/// but break it across invocations.
const REPLAY_SITE: usize = 0x517E_0001;

fn replay_fingerprint(seed: u64, cfg: FaultPlaneConfig, iters: u64) -> (String, Vec<u64>) {
    let plane = FaultPlane::new(seed, cfg);
    let mut fp: Vec<u64> = Vec::new();

    // HTM: seeded abort injection through the full optiLock retry loop.
    let mut gc = GoccConfig::no_perceptron();
    gc.htm.fault_plan = Some(Arc::clone(&plane.htm));
    let rt = GoccRuntime::new(gc);
    let m = ElidableMutex::new();
    let v = TxVar::new(0u64);
    let site = REPLAY_SITE;
    for _ in 0..iters {
        critical_mutex(&rt, site, &m, |tx| {
            let cur = tx.read(&v)?;
            tx.write(&v, cur + 1)
        });
    }
    let mut check = Tx::direct(rt.htm());
    assert_eq!(check.read(&v).unwrap(), iters, "lost updates in replay run");
    let snap = rt.stats().snapshot();
    fp.extend([
        snap.htm_attempts,
        snap.fast_commits,
        snap.slow_sections,
        snap.watchdog_forced,
    ]);

    // Pairing: the plan decides when the driver emits a phantom unlock;
    // the ledger must flag exactly those.
    let ledger = LockLedger::default();
    let (a, b, phantom) = (0u8, 0u8, 0u8);
    let (ida, idb, idp) = (lock_id(&a), lock_id(&b), lock_id(&phantom));
    for _ in 0..iters {
        ledger.note_lock(ida);
        ledger.note_lock(idb);
        if plane.pairing.mispair(site) {
            assert!(
                !ledger.note_unlock(idp),
                "phantom unlock must be flagged as a mispair"
            );
        }
        assert!(ledger.note_unlock(ida));
        assert!(ledger.note_unlock(idb));
    }
    assert_eq!(ledger.held_total(), 0, "ledger must balance after recovery");
    assert_eq!(ledger.mispairs(), plane.pairing.count());
    fp.extend([ledger.locks(), ledger.unlocks(), ledger.mispairs()]);

    // Transport: the same plan, the same stream, the same faults — every
    // read/write outcome becomes part of the fingerprint.
    let payload = vec![0xA5u8; 4096];
    let mut rd = FaultyStream::new(Cursor::new(payload), Arc::clone(&plane.transport));
    let mut buf = [0u8; 32];
    for _ in 0..iters.min(96) {
        fp.push(match rd.read(&mut buf) {
            Ok(n) => n as u64,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => 1_000,
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => 1_001,
            Err(_) => 1_002,
        });
    }
    let mut wr = FaultyStream::new(Vec::new(), Arc::clone(&plane.transport));
    for _ in 0..iters.min(96) {
        fp.push(match wr.write(&buf) {
            Ok(n) => n as u64,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => 2_000,
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => 2_001,
            Err(_) => 2_002,
        });
    }

    (plane.report().to_json(), fp)
}

fn phase1_replay(args: &Args) -> SoakResult<()> {
    let cfg = plane_config(args);
    let first = replay_fingerprint(args.seed, cfg, args.sections);
    let second = replay_fingerprint(args.seed, cfg, args.sections);
    if first != second {
        return Err(violation(format!(
            "same seed produced different fault schedules:\n  {}\n  {}",
            first.0, second.0
        )));
    }
    let other = replay_fingerprint(args.seed ^ 0x5DEE_CE66, cfg, args.sections);
    if first == other {
        return Err(violation("different seeds produced identical schedules"));
    }
    println!("phase 1 replay       OK  report={}", first.0);
    Ok(())
}

// -------------------------------------- phase 2: degradation vs oracle --

/// Multithreaded cache soak under HTM abort injection, checked op-by-op
/// against per-thread sequential oracles over disjoint key partitions
/// (disjointness makes the final state interleaving-independent).
fn phase2_cache_soak(args: &Args, mode: Mode, live: &Liveness) -> SoakResult<()> {
    const KEYS_PER_THREAD: u64 = 32;
    let plane = FaultPlane::new(args.seed.wrapping_add(0x2A), plane_config(args));
    let mut gc = GoccConfig::with_telemetry();
    gc.htm.fault_plan = Some(Arc::clone(&plane.htm));
    let rt = GoccRuntime::new(gc);
    let capacity = (args.threads as u64 * KEYS_PER_THREAD * 4).next_power_of_two() as usize;
    let cache = Cache::with_capacity(capacity);

    let per_thread = soak::in_parallel(args.threads, |t| {
        let engine = Engine::new(&rt, mode);
        let mut rng = SplitMix64::new(args.seed ^ (t as u64).wrapping_mul(0x9E37_79B9));
        let mut oracle: HashMap<u64, u64> = HashMap::new();
        let base = t as u64 * KEYS_PER_THREAD + 1;
        let key_of = |rng: &mut SplitMix64| base + rng.below(KEYS_PER_THREAD);
        let mut ops = 0u64;
        for _ in 0..args.sections {
            match rng.below(100) {
                0..=39 => {
                    let (k, val) = (key_of(&mut rng), rng.next_u64() >> 1);
                    cache.set(&engine, k, val, 0);
                    oracle.insert(k, val);
                }
                40..=69 => {
                    let (k, d) = (key_of(&mut rng), rng.below(1000));
                    let new = cache.incr(&engine, k, d);
                    let entry = oracle.entry(k).or_insert(0);
                    *entry = entry.wrapping_add(d);
                    if new != *entry {
                        return Err(violation(format!(
                            "thread {t}: incr({k}) => {new}, oracle {entry}"
                        )));
                    }
                }
                70..=79 => {
                    let k = key_of(&mut rng);
                    let existed = cache.delete(&engine, k);
                    if existed != oracle.remove(&k).is_some() {
                        return Err(violation(format!("thread {t}: delete({k}) diverged")));
                    }
                }
                80..=94 => {
                    let k = key_of(&mut rng);
                    if cache.get(&engine, k) != oracle.get(&k).copied() {
                        return Err(violation(format!("thread {t}: get({k}) diverged")));
                    }
                }
                _ => {
                    // Large read set: the capacity-abort generator.
                    let _ = cache.scan(&engine, 16);
                }
            }
            ops += 1;
            live.beat();
        }
        // Final readback: the whole partition must match.
        for k in base..base + KEYS_PER_THREAD {
            if cache.get(&engine, k) != oracle.get(&k).copied() {
                return Err(violation(format!(
                    "thread {t}: final state of {k} diverged"
                )));
            }
        }
        Ok(ops)
    });
    let total_ops: u64 = per_thread?.iter().sum();

    let snap = rt.stats().snapshot();
    let injected = plane.report().htm_injected.iter().sum::<u64>();
    // Lock mode never attempts HTM, so only the elided mode can (and
    // must) see injected aborts.
    if mode == Mode::Gocc && args.abort_rate > 0.0 && injected == 0 {
        return Err("abort injection never fired during the cache soak".into());
    }
    println!(
        "phase 2 soak ({:<4})  OK  ops={total_ops} injected_aborts={injected} \
         fast={} slow={} watchdog={}",
        mode_name(mode),
        snap.fast_commits,
        snap.slow_sections,
        snap.watchdog_forced,
    );
    Ok(())
}

/// A pathological retry policy (unbounded budget, 100% transient aborts)
/// is a livelock machine; the watchdog must bound every section and the
/// guarantee must be visible in telemetry.
fn phase2_watchdog(args: &Args, live: &Liveness) -> SoakResult<()> {
    const BOUND: u32 = 16;
    let plane = FaultPlane::new(
        args.seed.wrapping_add(0x77),
        FaultPlaneConfig {
            abort_mix: AbortMix {
                conflict: 1.0,
                ..AbortMix::default()
            },
            ..FaultPlaneConfig::default()
        },
    );
    let mut gc = GoccConfig::no_perceptron();
    gc.htm.fault_plan = Some(Arc::clone(&plane.htm));
    gc.policy.max_attempts = u32::MAX;
    gc.policy.watchdog_abort_bound = BOUND;
    gc.telemetry_enabled = true;
    let rt = GoccRuntime::new(gc);
    let m = ElidableMutex::new();
    let v = TxVar::new(0u64);
    let site = call_site!();
    let per_thread = args.sections.max(2) / 2;
    let total = per_thread * 2;
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                for _ in 0..per_thread {
                    critical_mutex(&rt, site, &m, |tx| {
                        let cur = tx.read(&v)?;
                        tx.write(&v, cur + 1)
                    });
                    live.beat();
                }
            });
        }
    });
    let mut check = Tx::direct(rt.htm());
    let count = check.read(&v).unwrap();
    if count != total {
        return Err(violation(format!(
            "watchdog run lost updates: {count} != {total}"
        )));
    }
    let snap = rt.stats().snapshot();
    if snap.watchdog_forced != total || snap.slow_sections != total {
        return Err(violation(format!(
            "watchdog must force every livelocked section to the lock: \
             forced={} slow={} of {total}",
            snap.watchdog_forced, snap.slow_sections
        )));
    }
    if snap.htm_attempts != total * u64::from(BOUND) {
        return Err(violation(format!(
            "each section must burn exactly {BOUND} fast attempts, saw {} for {total}",
            snap.htm_attempts
        )));
    }
    let report = rt.telemetry().expect("telemetry on").report();
    if report.watchdog_forced != total {
        return Err(violation(
            "the watchdog guarantee must be visible in telemetry",
        ));
    }
    println!(
        "phase 2 watchdog     OK  sections={total} forced={} attempts={}",
        snap.watchdog_forced, snap.htm_attempts
    );
    Ok(())
}

/// Injected Lock/Unlock mis-pairings through the real `OptiLock`
/// fast-path: every one must be detected, recovered, and counted.
fn phase2_pairing(args: &Args, live: &Liveness) -> SoakResult<()> {
    // No perceptron: a trained predictor would route mispaired iterations
    // to the slow path, which has no mismatch check to exercise.
    let plane = FaultPlane::new(args.seed.wrapping_add(0x9), plane_config(args));
    let rt = GoccRuntime::new(GoccConfig::no_perceptron());
    let a = ElidableMutex::new();
    let b = ElidableMutex::new();
    let v = TxVar::new(0u64);
    // Fixed site id: one mispair draw per iteration, so the injected
    // count is reproducible across invocations (see REPLAY_SITE).
    let site = REPLAY_SITE + 1;
    for _ in 0..args.sections {
        if plane.pairing.mispair(site) {
            // Mis-paired: FastLock(b) … FastUnlock(a), with a raw-held.
            let mut ol = OptiLock::new(site);
            a.lock_raw();
            loop {
                let mut scope = HtmScope::new(&rt);
                if ol.fast_lock(&mut scope, LockRef::Mutex(&b)).is_err() {
                    continue;
                }
                let write_ok = (|| {
                    let cur = scope.tx().read(&v)?;
                    scope.tx().write(&v, cur + 1)
                })();
                if write_ok.is_err() {
                    scope.abort_restart();
                    continue;
                }
                match ol.fast_unlock(&mut scope, LockRef::Mutex(&a)) {
                    Ok(()) => break,
                    Err(_) => {
                        if scope.is_active() {
                            scope.abort_restart();
                        }
                    }
                }
            }
            b.unlock_raw();
        } else {
            critical_mutex(&rt, site, &b, |tx| {
                let cur = tx.read(&v)?;
                tx.write(&v, cur + 1)
            });
        }
        if a.is_locked() || b.is_locked() {
            return Err(violation(
                "locks failed to balance after a mispaired iteration",
            ));
        }
        live.beat();
    }
    let injected = plane.pairing.count();
    let recovered = rt.stats().snapshot().mismatch_recoveries;
    if recovered != injected {
        return Err(violation(format!(
            "every injected mispair must be detected (and nothing else): \
             injected={injected} recovered={recovered}"
        )));
    }
    let mut check = Tx::direct(rt.htm());
    let count = check.read(&v).unwrap();
    if count != args.sections {
        return Err(violation(format!(
            "mispair recovery lost updates: {count} != {}",
            args.sections
        )));
    }
    println!("phase 2 pairing      OK  injected={injected} recovered={recovered}");
    Ok(())
}

// ------------------------------------------ phase 3: networked chaos --

/// A real `goccd` with transport faults on every accepted connection,
/// driven by resilient clients over disjoint key ranges. Idempotent verbs
/// only, so replay-on-failure is always safe; the store must end exactly
/// correct and the server must never see a malformed frame.
fn phase3_networked(args: &Args, mode: Mode, live: &Liveness) -> SoakResult<()> {
    let plane = FaultPlane::new(args.seed.wrapping_add(0x3), plane_config(args));
    let config = ServerConfig {
        write_timeout: Duration::from_secs(5),
        fault_plan: (args.transport_rate > 0.0).then(|| Arc::clone(&plane.transport)),
        ..soak::node_config(mode, 4, 1 << 14)
    };
    let handle = spawn_node("goccd", config)?;
    let port = handle.port();

    let per_client = soak::in_parallel(args.net_clients, |t| {
        let mut client = ResilientClient::new(
            port,
            ClientConfig::chaos(),
            args.seed ^ (t as u64 + 1).wrapping_mul(0xA076_1D64),
        );
        let value_of = |i: u64| (t as u64).wrapping_mul(1_000_003) + i * 7;
        // Pipelined bursts over 8 keys at a time: first each key's SET,
        // then each key's GET, with a DEL (every fifth key) ahead of it in
        // the same burst — FIFO order on one connection keeps them
        // serialized. Every answer must be the expected one (`None`: any
        // DEL answer). After an I/O fault the pipe re-sends the burst's
        // unanswered requests (idempotent verbs only, so replay stays safe
        // under chaos).
        const BATCH: usize = 8;
        for verify in [false, true] {
            for start in (0..args.net_keys).step_by(BATCH) {
                let end = (start + BATCH as u64).min(args.net_keys);
                let keys: Vec<String> = (start..end).map(|i| format!("c{t}-{i}")).collect();
                let (mut reqs, mut expect) = (Vec::new(), Vec::new());
                for (key, i) in keys.iter().map(String::as_bytes).zip(start..end) {
                    let deleted = verify && i % 5 == 4;
                    if deleted {
                        reqs.push(Request::Del { key });
                        expect.push(None);
                    }
                    if verify {
                        reqs.push(Request::Get { key });
                        expect.push(Some(Response::Value {
                            found: !deleted,
                            value: if deleted { 0 } else { value_of(i) },
                        }));
                    } else {
                        let value = value_of(i);
                        reqs.push(Request::Set { key, value, ttl: 0 });
                        expect.push(Some(Response::Done));
                    }
                }
                let mut wrong = None;
                let mut at = 0;
                client
                    .call_each(&reqs, |got| {
                        let fits = match &expect[at] {
                            None => matches!(got, Response::Deleted { .. }),
                            Some(want) => got == *want,
                        };
                        if !fits && wrong.is_none() {
                            wrong = Some(format!("{:?} answered {got:?}", reqs[at]));
                        }
                        at += 1;
                    })
                    .map_err(|e| format!("client {t}: {e}"))?;
                if let Some(what) = wrong {
                    return Err(violation(format!(
                        "client {t}: key diverged under transport faults: {what}"
                    )));
                }
                live.beat();
            }
        }
        Ok((client.reconnects(), client.replays()))
    });
    let (mut reconnects, mut replays) = (0u64, 0u64);
    for (rc, rp) in per_client? {
        reconnects += rc;
        replays += rp;
    }

    // STATS must stay serveable under faults (replay-safe verb).
    let mut control = ResilientClient::new(port, ClientConfig::chaos(), args.seed ^ 0x57A7);
    let stats = control
        .call(&Request::Stats)
        .map_err(|e| format!("STATS under faults: {e}"))?;
    let Response::Stats { json } = stats else {
        return Err("STATS returned a non-stats response".into());
    };
    let doc = JsonValue::parse(json).map_err(|e| format!("STATS JSON must parse: {e}"))?;
    match doc.get("mode").and_then(|m| m.as_str()) {
        Some(m) if m == mode_name(mode) => {}
        other => return Err(format!("server reports mode {other:?}").into()),
    }

    let state = handle.state_arc();
    let summary = soak::stop(handle);
    // The flight recorder's surviving spans, drained after shutdown, must
    // still render as a Chrome trace-event document.
    JsonValue::parse(&state.chrome_trace_json())
        .map_err(|e| format!("chrome trace dump does not parse: {e}"))?;
    if summary.malformed_frames != 0 {
        return Err(violation(format!(
            "transport faults must never corrupt frames: {} malformed",
            summary.malformed_frames
        )));
    }
    let injected = plane.transport.total_injected();
    if args.transport_rate >= 0.05 {
        if injected == 0 {
            return Err("transport injection never fired".into());
        }
        if reconnects + replays == 0 {
            return Err("clients never exercised resilience despite injected faults".into());
        }
    }
    println!(
        "phase 3 net ({:<4})   OK  injected={injected} reconnects={reconnects} \
         replays={replays} requests={}",
        mode_name(mode),
        summary.requests,
    );
    Ok(())
}

// ---------------------------------------------------------------- main --

fn run(args: &Args) -> SoakResult<()> {
    let modes = soak::modes(args.mode);
    let live = Liveness::start(NAME, args.stall_secs);
    let t0 = Instant::now();

    phase1_replay(args)?;
    for &mode in &modes {
        phase2_cache_soak(args, mode, &live)?;
    }
    phase2_watchdog(args, &live)?;
    phase2_pairing(args, &live)?;
    for &mode in &modes {
        phase3_networked(args, mode, &live)?;
    }

    live.finish();
    println!(
        "chaos_soak PASS  seed={} sections={} threads={} rates=({:.2},{:.2},{:.2}) {:?}",
        args.seed,
        args.sections,
        args.threads,
        args.abort_rate,
        args.pairing_rate,
        args.transport_rate,
        t0.elapsed(),
    );
    Ok(())
}

fn main() -> ExitCode {
    soak::main(NAME, parse, run)
}
