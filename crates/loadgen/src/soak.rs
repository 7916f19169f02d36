//! The soak kit: the scaffolding every harness binary in `src/bin` stands
//! on, in one place.
//!
//! * [`Flags`] — `gocc_server`'s flag table, re-exported: the one parser
//!   of these binaries and of `goccd`, with generated usage and the shared
//!   `--seed` / `--mode` / `--stall-secs` / `--goccd` rows ([`modes`]
//!   expands the `--mode` value);
//! * [`SoakError`] and [`main`] — the one place that maps an outcome to a
//!   process exit code: 4 = a guarantee or gate was violated, 2 = the
//!   liveness watchdog saw no progress, 1 = the harness itself broke;
//! * [`Liveness`] — the watchdog that turns a deadlock into exit 2;
//! * [`Daemon`] and [`TempDir`] — a `goccd` child process and a scratch
//!   directory that clean up after themselves on every exit path;
//! * in-process node configs, and a blocking [`connect`] for
//!   [`Pipe::call`], which the replication harnesses' REPL verbs go
//!   through too ([`repl_call`]);
//! * [`KeyHist`] / [`Oracle`] / [`issue_op`] — the per-key reference
//!   oracle the crash and failover soaks judge recovered state by.

use std::collections::HashMap;
use std::fmt;
use std::io::{self, BufRead, BufReader};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitCode, ExitStatus, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use gocc_server::{mode_name, Mode, ServerConfig, ServerHandle, ServerSummary};
use gocc_telemetry::{JsonValue, SplitMix64};
use gocc_wire::{Pipe, ReplRequest, Request, Response};

use crate::{connect_with_retry, fetch_stats, ClientConfig, ResilientClient};

// ----------------------------------------------------------- exit codes --

/// The harness itself failed: setup, I/O, a malformed answer.
pub const EXIT_HARNESS: u8 = 1;
/// The liveness watchdog saw no progress (deadlock or livelock).
pub const EXIT_LIVENESS: u8 = 2;
/// A guarantee or gate the harness exists to check did not hold.
pub const EXIT_VIOLATION: u8 = 4;

/// Why a harness run failed. `?` on a `Result<_, String>` yields
/// [`SoakError::Harness`]; a violated guarantee is always spelled out
/// with [`violation`].
#[derive(Debug, PartialEq, Eq)]
pub enum SoakError {
    Harness(String),
    Violation(String),
}

impl From<String> for SoakError {
    fn from(msg: String) -> Self {
        SoakError::Harness(msg)
    }
}

impl From<&str> for SoakError {
    fn from(msg: &str) -> Self {
        SoakError::Harness(msg.to_string())
    }
}

impl From<io::Error> for SoakError {
    fn from(e: io::Error) -> Self {
        SoakError::Harness(e.to_string())
    }
}

pub type SoakResult<T> = Result<T, SoakError>;

/// A guarantee violation (exit 4), distinct from a broken harness.
pub fn violation(msg: impl Into<String>) -> SoakError {
    SoakError::Violation(msg.into())
}

/// Parses the arguments, runs the harness and maps its outcome to the
/// exit status: 0, [`EXIT_HARNESS`] (also for a parse error) or
/// [`EXIT_VIOLATION`]. The `main` of every binary is a call to [`main`],
/// which feeds this the process arguments.
pub fn exit_status<A>(
    name: &str,
    raw: &[String],
    parse: impl FnOnce(&[String]) -> Result<A, String>,
    run: impl FnOnce(&A) -> SoakResult<()>,
) -> u8 {
    let args = match parse(raw) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return EXIT_HARNESS;
        }
    };
    match run(&args) {
        Ok(()) => 0,
        Err(SoakError::Harness(msg)) => {
            eprintln!("{name}: FAIL: {msg}");
            EXIT_HARNESS
        }
        Err(SoakError::Violation(msg)) => {
            eprintln!("{name}: FAIL: VIOLATION: {msg}");
            EXIT_VIOLATION
        }
    }
}

/// The whole `main` of a harness binary: [`exit_status`] over the
/// process arguments.
pub fn main<A>(
    name: &str,
    parse: impl FnOnce(&[String]) -> Result<A, String>,
    run: impl FnOnce(&A) -> SoakResult<()>,
) -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    ExitCode::from(exit_status(name, &raw, parse, run))
}

// ----------------------------------------------------------- flag table --

pub use gocc_server::flags::Flags;

/// The modes a `--mode` value selects (`None` = both).
pub fn modes(mode: Option<Mode>) -> Vec<Mode> {
    match mode {
        Some(m) => vec![m],
        None => vec![Mode::Lock, Mode::Gocc],
    }
}

// ---------------------------------------------------- liveness watchdog --

/// Progress heartbeat shared by every worker: the monitor thread exits
/// the whole process with [`EXIT_LIVENESS`] if the beat counter stops
/// moving — a deadlock or livelock becomes a fast, loud failure instead
/// of a hung CI job. That exit does not unwind: a run stalled with a
/// [`Daemon`] alive leaves it for the operator to find.
pub struct Liveness {
    beats: AtomicU64,
    done: AtomicBool,
}

impl Liveness {
    /// Starts the monitor; `stall_secs` (at least 5) without a beat is a
    /// stall.
    pub fn start(name: &str, stall_secs: u64) -> Arc<Liveness> {
        let live = Arc::new(Liveness {
            beats: AtomicU64::new(0),
            done: AtomicBool::new(false),
        });
        let monitor = Arc::clone(&live);
        let stall = Duration::from_secs(stall_secs.max(5));
        let name = name.to_string();
        std::thread::Builder::new()
            .name(format!("{name}-liveness"))
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
                            "{name}: LIVENESS WATCHDOG: no progress for {}s — \
                             deadlock or livelock",
                            stall.as_secs()
                        );
                        std::process::exit(i32::from(EXIT_LIVENESS));
                    }
                }
            })
            .expect("spawn liveness monitor");
        live
    }

    pub fn beat(&self) {
        self.beats.fetch_add(1, Ordering::Relaxed);
    }

    /// Polls `cond` every 10 ms until it holds or `timeout` has passed,
    /// beating meanwhile. `Ok(false)` = it never held; what that means
    /// (a violation, a harness failure) is the caller's to say.
    pub fn wait_for(
        &self,
        timeout: Duration,
        mut cond: impl FnMut() -> Result<bool, String>,
    ) -> Result<bool, String> {
        let deadline = Instant::now() + timeout;
        while !cond()? {
            if Instant::now() > deadline {
                return Ok(false);
            }
            std::thread::sleep(Duration::from_millis(10));
            self.beat();
        }
        Ok(true)
    }

    /// The run is over: the monitor stops watching.
    pub fn finish(&self) {
        self.done.store(true, Ordering::Relaxed);
    }
}

// -------------------------------------------------------------- threads --

/// Runs `n` scoped worker threads and gathers their results in thread
/// order; the first failure wins, and a panicked worker is one.
pub fn in_parallel<T: Send>(
    n: usize,
    worker: impl Fn(usize) -> SoakResult<T> + Sync,
) -> SoakResult<Vec<T>> {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..n)
            .map(|t| {
                let worker = &worker;
                s.spawn(move || worker(t))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("worker panicked".into())))
            .collect()
    })
}

/// One closed-loop client's view of the measurement: loop while
/// [`Meter::running`], call [`Meter::done`] after each operation.
pub struct Meter<'a> {
    stop: &'a AtomicBool,
    warm_at: Instant,
    counting: bool,
    ops: u64,
}

impl Meter<'_> {
    pub fn running(&self) -> bool {
        !self.stop.load(Ordering::Relaxed)
    }

    /// An operation finished; it counts once the warmup is over. The
    /// clock is read only until then.
    pub fn done(&mut self) {
        if self.counting {
            self.ops += 1;
        } else if Instant::now() >= self.warm_at {
            self.counting = true;
        }
    }
}

/// A closed-loop measurement: `clients` threads run `client` for a warmup
/// of `window / 8` plus `window`. Returns, per client, what it returned
/// and the operations it counted inside the window.
pub fn closed_loop<T: Send>(
    clients: usize,
    window: Duration,
    client: impl Fn(usize, &mut Meter<'_>) -> T + Sync,
) -> Vec<(T, u64)> {
    let warmup = window / 8;
    let stop = AtomicBool::new(false);
    let warm_at = Instant::now() + warmup;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|t| {
                let (stop, client) = (&stop, &client);
                s.spawn(move || {
                    let mut meter = Meter {
                        stop,
                        warm_at,
                        counting: false,
                        ops: 0,
                    };
                    let out = client(t, &mut meter);
                    (out, meter.ops)
                })
            })
            .collect();
        std::thread::sleep(warmup + window);
        stop.store(true, Ordering::Relaxed);
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop client panicked"))
            .collect()
    })
}

/// Aggregate throughput of a [`closed_loop`] run, in thousands of
/// operations per second.
pub fn kops<T>(clients: &[(T, u64)], window: Duration) -> f64 {
    let ops: u64 = clients.iter().map(|(_, ops)| ops).sum();
    ops as f64 / window.as_secs_f64() / 1e3
}

// ------------------------------------------------- processes and files --

/// How long a freshly spawned `goccd` may take to print `LISTENING`.
const LISTEN_PATIENCE: Duration = Duration::from_secs(30);

/// A `goccd` child process. Dropping it kills and reaps the child, so no
/// early return leaves an orphan daemon behind.
pub struct Daemon {
    child: Child,
    port: u16,
}

impl Daemon {
    /// The command line every soak's `goccd` child starts from: an
    /// ephemeral port, two workers, two shards, a group-commit WAL in
    /// `data_dir`. Callers append what their scenario adds.
    pub fn command(goccd: &str, mode: Mode, data_dir: &Path) -> Command {
        let mut cmd = Command::new(goccd);
        cmd.args(["--mode", mode_name(mode), "--port", "0"])
            .args(["--workers", "2", "--shards", "2"])
            .arg("--data-dir")
            .arg(data_dir)
            .args(["--wal-sync", "group", "--fsync-wait-us", "100"]);
        cmd
    }

    /// Spawns `cmd` with its stdout piped and waits for its
    /// `LISTENING <port>` line.
    pub fn spawn(mut cmd: Command) -> Result<Daemon, String> {
        let child = cmd
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| {
                let program = cmd.get_program().to_string_lossy();
                format!("spawn {program}: {e} (build release first?)")
            })?;
        Daemon::adopt(child, LISTEN_PATIENCE)
    }

    /// Takes over a child whose stdout is piped. One thread reads that
    /// pipe for the child's whole life: it announces the port, then keeps
    /// draining so the child can never block on a full pipe. A child
    /// that exits, or stays silent for `patience`, is killed, reaped and
    /// reported.
    pub fn adopt(child: Child, patience: Duration) -> Result<Daemon, String> {
        let mut daemon = Daemon { child, port: 0 };
        let stdout = daemon.child.stdout.take().ok_or("child stdout not piped")?;
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let mut announce = Some(tx);
            for line in BufReader::new(stdout).split(b'\n').map_while(Result::ok) {
                if let (Some(port), Some(tx)) = (line.strip_prefix(b"LISTENING "), &announce) {
                    let _ = tx.send(String::from_utf8_lossy(port).trim().parse::<u16>());
                    announce = None;
                }
            }
        });
        match rx.recv_timeout(patience) {
            Ok(Ok(port)) => {
                daemon.port = port;
                Ok(daemon)
            }
            Ok(Err(e)) => Err(format!("goccd printed a malformed LISTENING line: {e}")),
            Err(_) => Err("goccd never printed LISTENING".into()),
        }
    }

    pub fn port(&self) -> u16 {
        self.port
    }

    /// SIGKILL without reaping: the crash a failover scenario injects.
    pub fn kill(&mut self) -> Result<(), String> {
        self.child.kill().map_err(|e| format!("kill goccd: {e}"))
    }

    /// Reaps a child that is on its way out (asked to shut down, aborted
    /// by a seeded fault, or killed). One still running after `patience`
    /// is killed first, which its status then shows.
    pub fn wait_exit(&mut self, patience: Duration) -> Result<ExitStatus, String> {
        let deadline = Instant::now() + patience;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => return Ok(status),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                _ => {
                    let _ = self.child.kill();
                    return self.child.wait().map_err(|e| format!("wait: {e}"));
                }
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A scratch directory, cleared when claimed and removed on drop. The
/// directory itself is created by whoever writes into it (a WAL, a
/// daemon's `--data-dir`).
pub struct TempDir(PathBuf);

impl TempDir {
    /// `gocc-<label>-<pid>` under the system temp root.
    pub fn new(label: &str) -> TempDir {
        let name = format!("gocc-{label}-{}", std::process::id());
        TempDir::at(std::env::temp_dir().join(name))
    }

    /// A caller-chosen location (`wal_bench` needs a real disk, not a
    /// tmpfs).
    pub fn at(path: PathBuf) -> TempDir {
        let _ = std::fs::remove_dir_all(&path);
        TempDir(path)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

// ----------------------------------------------------- in-process nodes --

/// What every in-process soak node starts from: an ephemeral port and
/// two workers.
pub fn node_config(mode: Mode, shards: usize, capacity_per_shard: usize) -> ServerConfig {
    ServerConfig {
        mode,
        port: 0,
        workers: 2,
        shards,
        capacity_per_shard,
        ..ServerConfig::default()
    }
}

/// An in-process primary that accepts replication subscribers.
pub fn primary_config(mode: Mode, shards: usize, capacity_per_shard: usize) -> ServerConfig {
    ServerConfig {
        repl_accept: true,
        ..node_config(mode, shards, capacity_per_shard)
    }
}

/// An in-process replica following the node at `primary_port`.
pub fn replica_config(
    mode: Mode,
    shards: usize,
    capacity_per_shard: usize,
    primary_port: u16,
) -> ServerConfig {
    ServerConfig {
        replica_of: Some(format!("127.0.0.1:{primary_port}")),
        ..node_config(mode, shards, capacity_per_shard)
    }
}

/// Starts an in-process node; `what` names it in the error.
pub fn spawn_node(what: &str, config: ServerConfig) -> Result<ServerHandle, String> {
    gocc_server::spawn(config).map_err(|e| format!("spawn {what}: {e}"))
}

/// Shuts an in-process node down and waits for its threads.
pub fn stop(node: ServerHandle) -> ServerSummary {
    node.request_shutdown();
    node.join()
}

// --------------------------------------------------------- wire helpers --

/// A blocking connection to a daemon that may take a beat between
/// LISTENING and accept, for [`Pipe::call`]: one request out, its answer
/// back. An `Err` from a call means the peer went away mid-call — exactly
/// what a seeded abort looks like from the client side.
pub fn connect(port: u16) -> Result<Pipe<TcpStream>, String> {
    // Startup, not a dead daemon: the refused budget is generous.
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
    Ok(Pipe::new(stream))
}

/// One REPL verb over a fresh connection; `Ok` for `Done`.
pub fn repl_call(port: u16, req: &ReplRequest<'_>) -> Result<(), String> {
    match connect(port)?.call(&Request::Repl(req.clone())) {
        Ok(Response::Done) => Ok(()),
        other => Err(format!("REPL verb answered {other:?}")),
    }
}

/// GET through a resilient single-node client.
pub fn get_value(client: &mut ResilientClient, key: &str) -> Result<Option<u64>, String> {
    let get = Request::Get {
        key: key.as_bytes(),
    };
    match client.call(&get).map_err(|e| format!("GET {key}: {e}"))? {
        Response::Value { found, value } => Ok(found.then_some(value)),
        other => Err(format!("GET answered {other:?}")),
    }
}

/// The `repl` object from a node's STATS.
pub fn repl_stats(port: u16) -> Result<JsonValue, String> {
    fetch_stats(port)?
        .parsed
        .get("repl")
        .cloned()
        .ok_or_else(|| format!("node {port} STATS lacks a repl object"))
}

/// Sum of a node's per-shard replicated versions.
pub fn version_sum(repl: &JsonValue) -> u64 {
    repl.get("versions")
        .and_then(JsonValue::as_array)
        .map(|a| {
            a.iter()
                .filter_map(JsonValue::as_f64)
                .map(|v| v as u64)
                .sum()
        })
        .unwrap_or(0)
}

// ------------------------------------------------------- per-key oracle --

/// Post-state history of one key under a sequential (per-key) writer:
/// the state after every *issued* op and which of them was last
/// *acknowledged*. A surviving state must be the acked one or a later
/// issued one; anything else is a lost ack or an invented write.
#[derive(Default)]
pub struct KeyHist {
    /// Post-state after each issued op: `Some(v)` or `None` (deleted).
    states: Vec<Option<u64>>,
    /// Index into `states` of the last acknowledged op.
    acked: Option<usize>,
}

impl KeyHist {
    /// Records the post-state of an op about to be sent.
    pub fn issue(&mut self, state: Option<u64>) {
        self.states.push(state);
    }

    /// The op issued last was acknowledged.
    pub fn ack_last(&mut self) {
        self.acked = self.states.len().checked_sub(1);
    }

    pub fn is_acked(&self) -> bool {
        self.acked.is_some()
    }

    /// Current client-visible state (last issued).
    pub fn current(&self) -> Option<u64> {
        self.states.last().copied().flatten()
    }

    /// Whether an observed state is legal: the acked state or any later
    /// *issued* state (an unacked successor that took effect); with no
    /// ack yet, also the initial absence.
    pub fn admits(&self, got: Option<u64>) -> bool {
        match self.acked {
            Some(ai) => self.states[ai..].contains(&got),
            None => got.is_none() || self.states.contains(&got),
        }
    }

    /// Restarts the history from an observed, durable state: it is the
    /// truth the next phase builds on.
    pub fn rebase(&mut self, got: Option<u64>) {
        self.states = vec![got];
        self.acked = Some(0);
    }
}

impl fmt::Display for KeyHist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "acked index {:?} of {} issued states",
            self.acked,
            self.states.len()
        )
    }
}

pub type Oracle = HashMap<String, KeyHist>;

/// Reads every key back through `get` and holds it to its history: a
/// state that is neither the key's last acked one nor a later issued one
/// is a violation, `whence` saying where it was read. With `rebase` each
/// history restarts from what was read.
pub fn check_oracle(
    oracle: &mut Oracle,
    whence: &str,
    rebase: bool,
    mut get: impl FnMut(&str) -> Result<Option<u64>, String>,
) -> SoakResult<()> {
    for (key, hist) in oracle.iter_mut() {
        let got = get(key)?;
        if !hist.admits(got) {
            return Err(violation(format!(
                "key {key} {whence} is {got:?}, not an issued state at or after its last \
                 acked one ({hist})"
            )));
        }
        if rebase {
            hist.rebase(got);
        }
    }
    Ok(())
}

/// Draws the next write op for `key` and records its issued post-state;
/// the caller sends the request and marks the ack. SET and DEL
/// post-states are history-independent; `with_incr` adds INCR, whose
/// post-state is only predictable when every earlier op's fate is known
/// (one writer per key, and a crash ends the run).
pub fn issue_op<'k>(
    rng: &mut SplitMix64,
    key: &'k str,
    hist: &mut KeyHist,
    with_incr: bool,
) -> Request<'k> {
    let key_bytes = key.as_bytes();
    match rng.below(100) {
        roll if roll < if with_incr { 60 } else { 85 } => {
            let value = rng.next_u64() >> 1;
            hist.issue(Some(value));
            Request::Set {
                key: key_bytes,
                value,
                ttl: 0,
            }
        }
        roll if roll < 85 => {
            let delta = rng.below(1000) + 1;
            hist.issue(Some(hist.current().unwrap_or(0).wrapping_add(delta)));
            Request::Incr {
                key: key_bytes,
                delta,
            }
        }
        _ => {
            hist.issue(None);
            Request::Del { key: key_bytes }
        }
    }
}
