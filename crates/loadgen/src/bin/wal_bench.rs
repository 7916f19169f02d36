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
//! Prints one row per cell and, with `--gate`, enforces the durability
//! subsystem's two acceptance bounds on the gocc-mode numbers, each at
//! the level where it is meaningful. At the engine level group commit
//! must *amortize*: at least [`GROUP_RECORDS_PER_FSYNC_MIN`] records
//! behind each fsync under `group`, and no more than
//! [`ALWAYS_RECORDS_PER_FSYNC_MAX`] under `always` (the floor it is
//! compared against really is one fsync per record). Those are counts,
//! so they hold whatever the disk's fsync speed is today; the
//! group/always throughput ratio they produce is printed, not gated — on
//! a shared disk it read 2.7–5.1× with the counts unmoved. At the
//! service level a log that is never synced must stay a *batched* log:
//! under `off` the syncer makes at most [`OFF_PER_RECORD_MAX`] `write(2)`
//! calls and as many wake-ups per record (`Wal::writes` /
//! `Wal::syncer_wakeups` over `Wal::appended`), the two things a record
//! costs beyond its staging. Counts again: the throughput lost against
//! the in-memory daemon is printed, not gated — it read −14 … +39 % at
//! unchanged code. Nothing is written to disk but the log under test.
//! Exit codes: 1 = harness error, 4 = an enforced gate failed.
//!
//! ```console
//! $ wal_bench --window-ms 400 --gate
//! ```

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use gocc_loadgen::soak::{self, closed_loop, spawn_node, violation, Flags, SoakResult, TempDir};
use gocc_optilock::{GoccConfig, GoccRuntime};
use gocc_server::{mode_name, BatchScratch, Mode, ServerConfig, ShardedStore, SyncPolicy};
use gocc_telemetry::SplitMix64;
use gocc_wal::{Wal, WalBackend, WalConfig};
use gocc_wire::{Request, Response};
use gocc_workloads::Engine;

const NAME: &str = "wal_bench";
const KEYS: u64 = 4096;
const SHARDS: usize = 8;
/// Engine-level `group` must put at least this many records behind each
/// fsync (measured 4.1–4.3 with the default 8 writers).
const GROUP_RECORDS_PER_FSYNC_MIN: f64 = 3.0;
/// Engine-level `always` must stay at one record per fsync (reads
/// exactly 1.0).
const ALWAYS_RECORDS_PER_FSYNC_MAX: f64 = 1.05;
/// Service-level `off` may spend at most this many `write(2)` calls, and
/// this many syncer wake-ups, per record. A pass appends everything it
/// drained in one write and sleeps 50 µs behind it, so eight closed-loop
/// writers read 0.04–0.06 of each; one write or one wake-up for every
/// record — the batching lost — reads 1.0.
const OFF_PER_RECORD_MAX: f64 = 0.5;

struct Args {
    window: Duration,
    /// Closed-loop writers: engine threads, and service client
    /// connections (= server workers, so a group batch can reach this
    /// many records per fsync).
    workers: usize,
    gate: bool,
}

fn parse(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        window: Duration::from_millis(400),
        workers: 8,
        gate: false,
    };
    Flags::new(NAME)
        .millis("--window-ms", &mut args.window)
        .num("--workers", "N", &mut args.workers)
        .switch("--gate", &mut args.gate)
        .parse(raw)?;
    if args.workers == 0 {
        return Err("--workers must be >= 1".into());
    }
    Ok(args)
}

struct PolicyResult {
    kops: f64,
    log: LogCounts,
}

/// What the log counted over one run; all zero without a log.
#[derive(Default)]
struct LogCounts {
    fsyncs: u64,
    records: u64,
    writes: u64,
    syncer_wakeups: u64,
}

impl LogCounts {
    fn of(wal: &Wal) -> LogCounts {
        LogCounts {
            fsyncs: wal.fsyncs(),
            records: wal.appended(),
            writes: wal.writes(),
            syncer_wakeups: wal.syncer_wakeups(),
        }
    }

    fn records_per_fsync(&self) -> f64 {
        if self.fsyncs == 0 {
            0.0
        } else {
            self.records as f64 / self.fsyncs as f64
        }
    }

    /// `count` per record; a run that logged nothing has no batching to
    /// show and must not pass for it.
    fn per_record(&self, count: u64) -> f64 {
        if self.records == 0 {
            f64::INFINITY
        } else {
            count as f64 / self.records as f64
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
fn measure_engine(mode: Mode, policy: Option<SyncPolicy>, args: &Args, dir: &Path) -> PolicyResult {
    let _ = std::fs::remove_dir_all(dir);
    let wal = policy.map(|sync| {
        let (wal, _) = Wal::open(dir, SHARDS, wal_config(sync)).expect("open wal");
        wal
    });
    let store = ShardedStore::new(SHARDS, (KEYS * 4) as usize);
    let rt = GoccRuntime::new(GoccConfig::default());
    let clients = closed_loop(args.workers, args.window, |t, meter| {
        let engine = Engine::new(&rt, mode);
        let mut rng = SplitMix64::new(0x5EED ^ (t as u64 + 1).wrapping_mul(0x9E37));
        let mut keybuf = String::new();
        let mut scratch = BatchScratch::default();
        while meter.running() {
            use std::fmt::Write as _;
            keybuf.clear();
            let _ = write!(keybuf, "k{}", rng.below(KEYS));
            let req = Request::Set {
                key: keybuf.as_bytes(),
                value: rng.next_u64() >> 1,
                ttl: 0,
            };
            // The server's write path: a batch of one, then the
            // ack-after-barrier wait.
            let routed = [store.route(&req).expect("SET routes")];
            let wal = wal.as_deref();
            let out = store.execute_batch(&engine, &routed, wal, &mut scratch, |_, _, run| {
                run();
            });
            if let (Some(ticket), Some(wal)) = (out[0].ticket, wal) {
                wal.wait(ticket).expect("wal healthy");
            }
            meter.done();
        }
    });

    let log = wal.as_deref().map(LogCounts::of).unwrap_or_default();
    if let Some(wal) = wal {
        wal.shutdown();
    }
    let _ = std::fs::remove_dir_all(dir);
    PolicyResult {
        kops: soak::kops(&clients, args.window),
        log,
    }
}

/// One closed-loop run against a fresh in-process `goccd` over
/// loopback; `policy: None` runs without a data dir.
fn measure_service(
    mode: Mode,
    policy: Option<SyncPolicy>,
    args: &Args,
    dir: &Path,
) -> PolicyResult {
    let _ = std::fs::remove_dir_all(dir);
    let mut config = ServerConfig {
        mode,
        port: 0,
        workers: args.workers,
        shards: SHARDS,
        capacity_per_shard: (KEYS * 4) as usize,
        write_timeout: Duration::from_secs(5),
        data_dir: policy.map(|_| dir.to_path_buf()),
        ..ServerConfig::default()
    };
    if let Some(sync) = policy {
        config.wal = WalConfig {
            backend: WalBackend::Real,
            ..wal_config(sync)
        };
    }
    let handle = spawn_node("goccd", config).expect("in-process goccd boots");
    let port = handle.port();
    let clients = closed_loop(args.workers, args.window, |t, meter| {
        let mut rng = SplitMix64::new(0x5EED ^ (t as u64 + 1).wrapping_mul(0x9E37));
        let mut conn = soak::connect(port).expect("connect");
        let mut keybuf = String::new();
        while meter.running() {
            use std::fmt::Write as _;
            keybuf.clear();
            let _ = write!(keybuf, "k{}", rng.below(KEYS));
            let set = Request::Set {
                key: keybuf.as_bytes(),
                value: rng.next_u64() >> 1,
                ttl: 0,
            };
            assert_eq!(conn.call(&set).expect("SET"), Response::Done);
            meter.done();
        }
    });

    let state = handle.state_arc();
    let log = state.wal().map(|w| LogCounts::of(w)).unwrap_or_default();
    soak::stop(handle);
    let _ = std::fs::remove_dir_all(dir);
    PolicyResult {
        kops: soak::kops(&clients, args.window),
        log,
    }
}

/// Runs all four policies for one (level, mode) cell, prints the rows
/// and returns the four results in
/// [baseline, off, group, always] order.
///
/// With `repeats > 1` the whole policy loop runs that many times
/// *interleaved* and each cell keeps its best run: closed-loop
/// throughput noise on a shared box is strictly one-sided (interference
/// only ever slows a run down), so best-of-N converges on the true
/// figure — the same reasoning as `loadgen --pipeline-gate`'s best of
/// three interleaved runs per depth.
fn sweep(
    args: &Args,
    dir: &Path,
    mode: Mode,
    repeats: usize,
    measure: impl Fn(Mode, Option<SyncPolicy>, &Args, &Path) -> PolicyResult,
) -> [PolicyResult; 4] {
    let policies = [
        None,
        Some(SyncPolicy::Off),
        Some(SyncPolicy::Group),
        Some(SyncPolicy::Always),
    ];
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
    let best = best.map(|r| r.expect("repeats >= 1"));
    for (r, policy) in best.iter().zip(policies) {
        let name = policy.map_or("baseline", SyncPolicy::name);
        println!(
            "    {name:<8} {:>9.1} kops/s  fsyncs={:<8} records/fsync={:<5.1} writes={:<8} \
             wakeups={}",
            r.kops,
            r.log.fsyncs,
            r.log.records_per_fsync(),
            r.log.writes,
            r.log.syncer_wakeups
        );
    }
    best
}

fn run(args: &Args) -> SoakResult<()> {
    // Current directory, not /tmp: a tmpfs fsync is free, which would
    // flatten exactly the amortization this bench exists to measure.
    let dir = TempDir::at(PathBuf::from(format!(".wal_bench-{}", std::process::id())));

    println!(
        "WAL engine throughput: {} closed-loop threads on execute_batch, {}ms window, SET",
        args.workers,
        args.window.as_millis()
    );
    sweep(args, dir.path(), Mode::Lock, 1, measure_engine);
    let [_, _, group, always] = sweep(args, dir.path(), Mode::Gocc, 1, measure_engine);

    println!(
        "WAL service throughput: goccd loopback, {} closed-loop clients, {}ms window, SET",
        args.workers,
        args.window.as_millis()
    );
    // Service runs are where box noise bites (sockets + scheduling on
    // top of everything else), so each cell is the best of three.
    sweep(args, dir.path(), Mode::Lock, 3, measure_service);
    let [baseline, off, _, _] = sweep(args, dir.path(), Mode::Gocc, 3, measure_service);

    // Gates on the gocc numbers: the subsystem exists to make durability
    // cheap for the paper's execution mode. Amortization is an engine
    // property (per-op CPU is tiny there, so the fsync schedule is the
    // whole difference); the off tax is a service property (what a real
    // client's record costs a daemon that keeps a log it never syncs).
    let group_ratio = if always.kops > 0.0 {
        group.kops / always.kops
    } else {
        f64::INFINITY
    };
    let off_loss_pct = if baseline.kops > 0.0 {
        (1.0 - off.kops / baseline.kops) * 100.0
    } else {
        0.0
    };
    let (group_rpf, always_rpf) = (
        group.log.records_per_fsync(),
        always.log.records_per_fsync(),
    );
    let group_ok =
        group_rpf >= GROUP_RECORDS_PER_FSYNC_MIN && always_rpf <= ALWAYS_RECORDS_PER_FSYNC_MAX;
    let off_writes = off.log.per_record(off.log.writes);
    let off_wakeups = off.log.per_record(off.log.syncer_wakeups);
    let off_ok = off_writes <= OFF_PER_RECORD_MAX && off_wakeups <= OFF_PER_RECORD_MAX;
    println!(
        "gates (gocc): engine records/fsync group = {group_rpf:.1} (need >= \
         {GROUP_RECORDS_PER_FSYNC_MIN:.1}) always = {always_rpf:.2} (allow <= \
         {ALWAYS_RECORDS_PER_FSYNC_MAX:.2}), group/always = {group_ratio:.1}x (reported)  \
         service off per record: writes = {off_writes:.3} wake-ups = {off_wakeups:.3} (allow <= \
         {OFF_PER_RECORD_MAX:.2} each), loss vs in-memory = {off_loss_pct:.1}% (reported)"
    );

    let mut failed = Vec::new();
    if !group_ok {
        failed.push(format!(
            "engine group commit put {group_rpf:.2} records behind each fsync (need \
             {GROUP_RECORDS_PER_FSYNC_MIN:.1}) against {always_rpf:.2} under always (allow \
             {ALWAYS_RECORDS_PER_FSYNC_MAX:.2})"
        ));
    }
    if !off_ok {
        failed.push(format!(
            "service sync=off spends {off_writes:.3} writes and {off_wakeups:.3} syncer wake-ups \
             per record (allow {OFF_PER_RECORD_MAX:.2} each)"
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
