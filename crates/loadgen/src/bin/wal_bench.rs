//! `wal_bench` — WAL throughput sweep: what durability costs, and how
//! much group commit buys back.
//!
//! Two measurement levels, each a closed-loop SET workload over the
//! same four sync configurations (no WAL baseline, `off`, `group`,
//! `always`), each in both execution modes:
//!
//! * **engine** — worker threads call `ShardedStore::execute_batch`
//!   directly, one SET per batch (no sockets). Per-op CPU is sub-microsecond here, so this
//!   level isolates the *fsync amortization*: `group` batches every
//!   in-flight record behind one fsync while `always` pays one fsync
//!   per record, and the ratio between them is the subsystem's reason
//!   to exist — the same cost-amortization shape as the paper's lock
//!   elision against the always-lock floor.
//! * **service** — a real in-process `goccd` driven over loopback
//!   sockets, including the conn-layer ack-after-barrier wait. The
//!   request path (syscalls, scheduling) dominates here, so this level
//!   measures the *WAL tax on the service*: what `--wal-sync off`
//!   costs relative to running with no `--data-dir` at all.
//!
//! Emits `BENCH_wal.json` (common artifact header) and, with `--gate`,
//! enforces the durability subsystem's two acceptance bounds on the
//! gocc-mode numbers, each at the level where it is meaningful:
//! engine-level group commit at least `WAL_GATE_GROUP_X`× the
//! per-record-fsync floor (default 5), and service-level sync-off
//! throughput within `WAL_GATE_OFF_PCT`% of the in-memory baseline
//! (default 10). Override either via the environment on noisy boxes,
//! like `HOTPATH_GATE_RATIO`.
//!
//! ```console
//! $ wal_bench --window-ms 400 --gate
//! ```

use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use gocc_loadgen::{connect_with_retry, ClientConfig};
use gocc_optilock::{GoccConfig, GoccRuntime};
use gocc_server::{mode_name, spawn, BatchScratch, Mode, ServerConfig, ShardedStore, SyncPolicy};
use gocc_telemetry::{JsonWriter, SplitMix64};
use gocc_wal::{Wal, WalBackend, WalConfig};
use gocc_wire::{decode_response, encode_request, read_frame, write_frame, Request, Response};
use gocc_workloads::Engine;

const KEYS: u64 = 4096;
const SHARDS: usize = 8;

struct Args {
    window: Duration,
    /// Closed-loop writers: engine threads, and service client
    /// connections (= server workers, so a group batch can reach this
    /// many records per fsync).
    workers: usize,
    gate: bool,
}

fn usage() -> String {
    "usage: wal_bench [--window-ms N] [--workers N] [--gate]".to_string()
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        window: Duration::from_millis(400),
        workers: 8,
        gate: false,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--window-ms" => {
                args.window = Duration::from_millis(
                    value("--window-ms")?
                        .parse()
                        .map_err(|e| format!("--window-ms: {e}"))?,
                );
            }
            "--workers" => {
                args.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
                if args.workers == 0 {
                    return Err("--workers must be >= 1".into());
                }
            }
            "--gate" => args.gate = true,
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown flag {other:?}\n{}", usage())),
        }
    }
    Ok(args)
}

struct PolicyResult {
    kops: f64,
    fsyncs: u64,
    records: u64,
}

impl PolicyResult {
    fn records_per_fsync(&self) -> f64 {
        if self.fsyncs == 0 {
            0.0
        } else {
            self.records as f64 / self.fsyncs as f64
        }
    }
}

fn wal_config(sync: SyncPolicy) -> WalConfig {
    WalConfig {
        sync,
        // No linger: a closed loop of `workers` writers caps every batch
        // at `workers` records, so waiting for a fuller batch is pure
        // latency — natural batching from fsync duration does the rest.
        fsync_wait_us: 0,
        checkpoint_every: 0,
        ..WalConfig::default()
    }
}

/// One closed-loop run with `workers` threads hammering the store
/// directly; `policy: None` skips the WAL entirely.
fn measure_engine(
    mode: Mode,
    policy: Option<SyncPolicy>,
    args: &Args,
    dir: &PathBuf,
) -> PolicyResult {
    let _ = std::fs::remove_dir_all(dir);
    let wal = policy.map(|sync| {
        let (wal, _) = Wal::open(dir, SHARDS, wal_config(sync)).expect("open wal");
        wal
    });
    let store = ShardedStore::new(SHARDS, (KEYS * 4) as usize);
    let rt = GoccRuntime::new(GoccConfig::default());
    let warmup = args.window / 8;
    let stop = AtomicBool::new(false);
    let started = Instant::now();

    let total_ops: u64 = std::thread::scope(|s| {
        let handles: Vec<_> = (0..args.workers)
            .map(|t| {
                let (stop, store, rt, wal) = (&stop, &store, &rt, &wal);
                s.spawn(move || {
                    let engine = Engine::new(rt, mode);
                    let mut rng = SplitMix64::new(0x5EED ^ (t as u64 + 1).wrapping_mul(0x9E37));
                    let mut keybuf = String::new();
                    let mut ops = 0u64;
                    let mut counting = false;
                    let mut scratch = BatchScratch::default();
                    while !stop.load(Ordering::Relaxed) {
                        use std::fmt::Write as _;
                        keybuf.clear();
                        let _ = write!(keybuf, "k{}", rng.below(KEYS));
                        let req = Request::Set {
                            key: keybuf.as_bytes(),
                            value: rng.next_u64() >> 1,
                            ttl: 0,
                        };
                        // The server's write path: a batch of one, then
                        // the ack-after-barrier wait.
                        let routed = [store.route(&req).expect("SET routes")];
                        let wal = wal.as_deref();
                        let out = store.execute_batch(
                            &engine,
                            &routed,
                            wal,
                            &mut scratch,
                            |_, _, run| {
                                run();
                            },
                        );
                        if let (Some(ticket), Some(wal)) = (out[0].ticket, wal) {
                            wal.wait(ticket).expect("wal healthy");
                        }
                        if counting {
                            ops += 1;
                        } else if started.elapsed() >= warmup {
                            counting = true;
                        }
                    }
                    ops
                })
            })
            .collect();
        std::thread::sleep(warmup + args.window);
        stop.store(true, Ordering::Relaxed);
        handles.into_iter().map(|h| h.join().expect("worker")).sum()
    });

    let (fsyncs, records) = wal.as_ref().map_or((0, 0), |w| (w.fsyncs(), w.appended()));
    if let Some(wal) = wal {
        wal.shutdown();
    }
    let _ = std::fs::remove_dir_all(dir);
    PolicyResult {
        kops: total_ops as f64 / args.window.as_secs_f64() / 1e3,
        fsyncs,
        records,
    }
}

/// One closed-loop run against a fresh in-process `goccd` over
/// loopback; `policy: None` runs without a data dir.
fn measure_service(
    mode: Mode,
    policy: Option<SyncPolicy>,
    args: &Args,
    dir: &PathBuf,
) -> PolicyResult {
    let _ = std::fs::remove_dir_all(dir);
    let mut config = ServerConfig {
        mode,
        port: 0,
        workers: args.workers,
        shards: SHARDS,
        capacity_per_shard: (KEYS * 4) as usize,
        write_timeout: Duration::from_secs(5),
        data_dir: policy.map(|_| dir.clone()),
        ..ServerConfig::default()
    };
    if let Some(sync) = policy {
        config.wal = WalConfig {
            backend: WalBackend::Real,
            ..wal_config(sync)
        };
    }
    let handle = spawn(config).expect("spawn goccd");
    let port = handle.port();
    let warmup = args.window / 8;
    let stop = AtomicBool::new(false);
    let started = Instant::now();

    let total_ops: u64 = std::thread::scope(|s| {
        let handles: Vec<_> = (0..args.workers)
            .map(|t| {
                let stop = &stop;
                s.spawn(move || {
                    let cfg = ClientConfig {
                        read_timeout: Duration::from_secs(10),
                        ..ClientConfig::default()
                    };
                    let mut rng = SplitMix64::new(0x5EED ^ (t as u64 + 1).wrapping_mul(0x9E37));
                    let mut stream = connect_with_retry(port, &cfg, &mut rng).expect("connect");
                    let (mut wirebuf, mut respbuf) = (Vec::new(), Vec::new());
                    let mut keybuf = String::new();
                    let mut ops = 0u64;
                    let mut counting = false;
                    while !stop.load(Ordering::Relaxed) {
                        use std::fmt::Write as _;
                        keybuf.clear();
                        let _ = write!(keybuf, "k{}", rng.below(KEYS));
                        wirebuf.clear();
                        encode_request(
                            &Request::Set {
                                key: keybuf.as_bytes(),
                                value: rng.next_u64() >> 1,
                                ttl: 0,
                            },
                            &mut wirebuf,
                        );
                        write_frame(&mut stream, &wirebuf).expect("send");
                        assert!(read_frame(&mut stream, &mut respbuf).expect("recv"));
                        assert_eq!(decode_response(&respbuf).expect("decode"), Response::Done);
                        if counting {
                            ops += 1;
                        } else if started.elapsed() >= warmup {
                            counting = true;
                        }
                    }
                    let _ = stream.flush();
                    ops
                })
            })
            .collect();
        std::thread::sleep(warmup + args.window);
        stop.store(true, Ordering::Relaxed);
        handles.into_iter().map(|h| h.join().expect("client")).sum()
    });

    let state = handle.state_arc();
    let (fsyncs, records) = state.wal().map_or((0, 0), |w| (w.fsyncs(), w.appended()));
    handle.request_shutdown();
    let _ = handle.join();
    let _ = std::fs::remove_dir_all(dir);
    PolicyResult {
        kops: total_ops as f64 / args.window.as_secs_f64() / 1e3,
        fsyncs,
        records,
    }
}

fn gate_env(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Runs all four policies for one (level, mode) cell, prints the rows,
/// writes them under `w`, and returns the four kops numbers in
/// [baseline, off, group, always] order.
///
/// With `repeats > 1` the whole policy loop runs that many times
/// *interleaved* and each cell keeps its best run: closed-loop
/// throughput noise on a shared box is strictly one-sided (interference
/// only ever slows a run down), so best-of-N converges on the true
/// figure — the same reasoning as `trace_overhead`'s min-of-5.
fn sweep(
    w: &mut JsonWriter,
    args: &Args,
    dir: &PathBuf,
    mode: Mode,
    repeats: usize,
    measure: impl Fn(Mode, Option<SyncPolicy>, &Args, &PathBuf) -> PolicyResult,
) -> [f64; 4] {
    let policies = [
        None,
        Some(SyncPolicy::Off),
        Some(SyncPolicy::Group),
        Some(SyncPolicy::Always),
    ];
    w.key(mode_name(mode)).begin_object();
    println!("  {}:", mode_name(mode));
    let mut best: [Option<PolicyResult>; 4] = [None, None, None, None];
    for _ in 0..repeats {
        for (i, policy) in policies.into_iter().enumerate() {
            let r = measure(mode, policy, args, dir);
            if best[i].as_ref().is_none_or(|b| r.kops > b.kops) {
                best[i] = Some(r);
            }
        }
    }
    let mut kops = [0.0; 4];
    for (i, policy) in policies.into_iter().enumerate() {
        let r = best[i].as_ref().expect("measured above");
        let name = policy.map_or("baseline", SyncPolicy::name);
        println!(
            "    {name:<8} {:>9.1} kops/s  fsyncs={:<8} records/fsync={:.1}",
            r.kops,
            r.fsyncs,
            r.records_per_fsync()
        );
        w.key(name)
            .begin_object()
            .field_f64("kops", r.kops)
            .field_u64("fsyncs", r.fsyncs)
            .field_u64("records", r.records)
            .field_f64("records_per_fsync", r.records_per_fsync())
            .end_object();
        kops[i] = r.kops;
    }
    w.end_object();
    kops
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
    // Current directory, not /tmp: a tmpfs fsync is free, which would
    // flatten exactly the amortization this bench exists to measure.
    let dir = PathBuf::from(format!(".wal_bench-{}", std::process::id()));

    let mut w = JsonWriter::new();
    w.begin_object()
        .field_u64("workers", args.workers as u64)
        .field_u64("window_ms", args.window.as_millis() as u64);

    println!(
        "WAL engine throughput: {} closed-loop threads on execute_batch, {}ms window, SET",
        args.workers,
        args.window.as_millis()
    );
    w.key("engine").begin_object();
    let mut engine_gocc = [0.0; 4];
    for mode in [Mode::Lock, Mode::Gocc] {
        let kops = sweep(&mut w, &args, &dir, mode, 1, measure_engine);
        if mode == Mode::Gocc {
            engine_gocc = kops;
        }
    }
    w.end_object();

    println!(
        "WAL service throughput: goccd loopback, {} closed-loop clients, {}ms window, SET",
        args.workers,
        args.window.as_millis()
    );
    // Service runs are where box noise bites (sockets + scheduling on
    // top of everything else), so each cell is the best of three.
    w.key("service").begin_object();
    let mut service_gocc = [0.0; 4];
    for mode in [Mode::Lock, Mode::Gocc] {
        let kops = sweep(&mut w, &args, &dir, mode, 3, measure_service);
        if mode == Mode::Gocc {
            service_gocc = kops;
        }
    }
    w.end_object();

    // Gates on the gocc numbers: the subsystem exists to make durability
    // cheap for the paper's execution mode. Amortization is an engine
    // property (per-op CPU is tiny there, so the fsync schedule is the
    // whole difference); the off tax is a service property (what a real
    // client loses when the daemon keeps a log it never syncs).
    let group_x = gate_env("WAL_GATE_GROUP_X", 5.0);
    let off_pct = gate_env("WAL_GATE_OFF_PCT", 10.0);
    let [_, _, group, always] = engine_gocc;
    let [baseline, off, _, _] = service_gocc;
    let group_ratio = if always > 0.0 {
        group / always
    } else {
        f64::INFINITY
    };
    let off_loss_pct = if baseline > 0.0 {
        (1.0 - off / baseline) * 100.0
    } else {
        0.0
    };
    let group_ok = group_ratio >= group_x;
    let off_ok = off_loss_pct <= off_pct;
    w.key("gates")
        .begin_object()
        .field_bool("enforced", args.gate)
        .field_f64("engine_group_over_always", group_ratio)
        .field_f64("engine_group_over_always_min", group_x)
        .field_bool("group_ok", group_ok)
        .field_f64("service_off_loss_pct", off_loss_pct)
        .field_f64("service_off_loss_max_pct", off_pct)
        .field_bool("off_ok", off_ok)
        .end_object()
        .end_object();
    gocc_bench::write_artifact("wal", &w.finish());
    println!(
        "gates (gocc): engine group/always = {group_ratio:.1}x (need >= {group_x:.1}x)  \
         service off loss = {off_loss_pct:.1}% (allow <= {off_pct:.1}%)"
    );

    if args.gate && !(group_ok && off_ok) {
        if !group_ok {
            eprintln!(
                "wal_bench: GATE FAIL: engine group commit only {group_ratio:.2}x over \
                 per-record fsync (need {group_x:.1}x; override WAL_GATE_GROUP_X)"
            );
        }
        if !off_ok {
            eprintln!(
                "wal_bench: GATE FAIL: service sync=off loses {off_loss_pct:.1}% vs \
                 in-memory (allow {off_pct:.1}%; override WAL_GATE_OFF_PCT)"
            );
        }
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
