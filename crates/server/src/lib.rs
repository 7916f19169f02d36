//! `goccd`: a loopback TCP cache service whose storage runs through the
//! GOCC engine.
//!
//! This crate turns the repository's in-process evaluation stack into a
//! request-serving system: the [`gocc_wire`] protocol on the outside, the
//! existing `workloads::gocache` critical sections (executed via
//! [`Engine`] in either [`Mode::Lock`] or [`Mode::Gocc`]) on the inside.
//! Every byte served exercises the same elision runtime, perceptron and
//! telemetry the microbenchmarks measure — but under real socket traffic,
//! which is what `crates/loadgen` drives.
//!
//! # Threading and ownership model
//!
//! * One **acceptor** thread owns the listener (non-blocking; it blocks
//!   in `idle::wait` on the listener and its waker, so shutdown reaches
//!   it) and deals accepted connections round-robin onto per-worker
//!   channels — the sharded connection dispatcher — waking the worker it
//!   dealt to.
//! * `workers` **worker** threads each own a disjoint set of connections
//!   outright, replica streams included (no connection is ever touched by
//!   two threads), pumping them with non-blocking reads/writes. A worker
//!   with nothing to do waits in `idle::wait`, its only wait: on its
//!   connections' readiness and its waker until the nearest deadline of
//!   theirs (a heartbeat, a parked answer's timeout or lease, an
//!   eviction), or — when its peers pipeline or a seeded plan or the
//!   brownout controller keeps a clock — until the next tick of an
//!   `IDLE_PASS` cadence. Its passes are a [`Worker`]'s, each at the one
//!   instant `worker_loop` hands it. Worker state is plain `&mut`; the
//!   only cross-thread state is the [`ServerState`] behind an `Arc` — the
//!   store (whose interior synchronization *is* the system under test),
//!   atomic counters, the role, the shutdown flag and the wakers.
//! * **No worker waits on the log or a replica**: a logged write, a FLUSH
//!   and a `min_acks` write park their response (see `conn`), and the
//!   replica sink parks its ACKs (see `repl`). The WAL syncer's tap wakes
//!   the workers and the sink that parked on the log, and the owners of
//!   replica streams when the feed moved; the worker that records a
//!   REPL_ACK wakes the others. Only a checkpoint blocks on the log: the
//!   checkpointer's, which waits in `idle::wait` for the tap's signal in
//!   between, and the sink's after a snapshot resync.
//! * A **malformed frame kills its connection, never the server**: framing
//!   or decode errors send a final `Error` response and close that one
//!   connection. IO errors likewise. A worker never panics on input.
//! * **Slow clients** that stop draining their socket are disconnected
//!   once a pending write makes no progress for
//!   [`ServerConfig::write_timeout`].
//! * **Graceful shutdown** (SHUTDOWN verb or
//!   [`ServerHandle::request_shutdown`]): the acceptor stops, workers
//!   answer what they owe (bounded drain, [`ServerConfig::drain_timeout`]),
//!   close their connections and exit; [`ServerHandle::join`] then yields
//!   a [`ServerSummary`].
//!
//! # Overload protection
//!
//! The server defends its latency under saturation (see `overload`):
//!
//! * **Deadlines**: protocol-v2 frames carry a client budget; requests
//!   that expired while queued are answered `DeadlineExceeded` without
//!   touching the engine, and requests that expire *during* execution get
//!   the same response (effect applied — deadlines bound waiting, not
//!   effects).
//! * **Admission control**: per-worker queue depth sheds expensive verbs
//!   (SCAN/STATS) at half of [`ServerConfig::queue_limit`] and everything
//!   but the control plane at the full limit.
//! * **Brownout**: EWMAs of queue depth and request latency drive
//!   `Healthy → Degraded → Shedding`; shed requests are answered with the
//!   retriable `Overloaded` response on a connection that stays open.
//! * **Memory bound**: a connection holding more than 256 KiB of
//!   unprocessed bytes stops being read until it drains — TCP backpressure caps per-connection memory.
//! * The **HEALTH** verb reports the brownout state plus shed and
//!   deadline-miss counters, and is never shed.

#[cfg(test)]
mod alloc_budget;
mod conn;
pub mod idle;
mod overload;
mod repl;
mod stats;
mod store;

use std::io;
use std::net::{Ipv4Addr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{fence, AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gocc_faultplane::{LoadFault, LoadFaultPlan, TransportFaultPlan};
use gocc_optilock::{GoccConfig, GoccRuntime};
use gocc_repl::Role;
pub use gocc_repl::{ReplConfig, ReplFeed};
use gocc_telemetry::trace;
use gocc_wal::{CheckpointImage, DurableTap, Staged, Wal, WalError};
pub use gocc_wal::{SyncPolicy, WalBackend, WalConfig};
use gocc_wire::Response;
use gocc_workloads::Engine;
pub use gocc_workloads::Mode;

pub use overload::{
    classify, BrownoutConfig, BrownoutController, HealthState, ShedCause, VerbClass,
    SHED_CAUSE_NAMES, TRANSITION_NAMES,
};
pub use stats::{ServerCounters, WorkerGauges};
pub use store::{BatchOutcome, BatchScratch, Routed, Session, ShardedStore};

use conn::{Conn, PumpOutcome};
use idle::IDLE_PASS;

/// Seed mixed into flight-recorder trace ids, so two runs with the same
/// traffic produce the same ids.
const TRACE_SEED: u64 = 0x9e37_79b9_7f4a_7c15;

/// Deployment knobs for one [`spawn`]ed server.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Whether critical sections run pessimistically or through `optiLib`.
    pub mode: Mode,
    /// TCP port on 127.0.0.1; 0 picks an ephemeral port (read it back
    /// from [`ServerHandle::port`]).
    pub port: u16,
    /// Worker threads (each owns its share of the connections).
    pub workers: usize,
    /// Store shards (each an independent lock + map pair).
    pub shards: usize,
    /// Entry capacity per shard; the transactional map does not grow, so
    /// size at ≥ 2× the expected keys per shard.
    pub capacity_per_shard: usize,
    /// Disconnect a client whose pending response bytes make no progress
    /// for this long.
    pub write_timeout: Duration,
    /// How long the shutdown drain gives each connection to flush its
    /// queued response bytes before closing regardless.
    pub drain_timeout: Duration,
    /// Per-worker admission queue limit: data verbs are shed once a pump
    /// pass has seen this many frames; expensive verbs (SCAN/STATS) at
    /// half of it.
    pub queue_limit: u64,
    /// Brownout state-machine thresholds.
    pub brownout: BrownoutConfig,
    /// Seeded transport fault injection on every accepted connection's
    /// reads/writes (chaos testing); `None` disables it entirely.
    pub fault_plan: Option<Arc<TransportFaultPlan>>,
    /// Seeded load fault injection (worker stalls, slow store calls) for
    /// driving the brownout controller deterministically; `None` disables.
    pub load_plan: Option<Arc<LoadFaultPlan>>,
    /// Flight-recorder sampling rate: trace every N-th request per worker
    /// thread (`0` disables tracing entirely — the hot path then pays one
    /// relaxed atomic load per frame and nothing else).
    pub trace_sample_n: u64,
    /// Durability root: the WAL segments and checkpoint live here. `None`
    /// runs purely in memory — no log, no recovery, zero overhead.
    pub data_dir: Option<std::path::PathBuf>,
    /// WAL tuning (sync policy, group-commit batch/linger, checkpoint
    /// cadence, fault-injection backend). Ignored without `data_dir`.
    pub wal: WalConfig,
    /// Boot as a replica of this primary (`host:port`). The node serves
    /// reads, answers writes `NotPrimary`, and applies the upstream's
    /// version-stamped stream until promoted.
    pub replica_of: Option<String>,
    /// Accept replication subscribers (REPL_HELLO) as a primary. Implied
    /// for promoted replicas; a plain primary must opt in.
    pub repl_accept: bool,
    /// Writes acknowledge only after this many replicas confirmed the
    /// version (0 = replication is asynchronous, never gates acks).
    pub repl_min_acks: usize,
    /// Primary fencing lease: with `repl_min_acks > 0`, a primary that
    /// has not heard an ack within this window stops acknowledging
    /// writes — a partitioned old primary cannot diverge.
    pub repl_lease: Duration,
    /// How long a write waits for `repl_min_acks` confirmations before
    /// answering with a retriable error.
    pub repl_ack_timeout: Duration,
    /// Seeded transport fault injection on the replication stream only
    /// (partitions, stalls, resets between primary and replica).
    pub repl_fault_plan: Option<Arc<TransportFaultPlan>>,
    /// Seed for the replica's reconnect/resync backoff jitter.
    pub repl_seed: u64,
    /// Self-healing: a replica that suspects its primary dead runs a
    /// quorum election and promotes itself on a majority. Off by default —
    /// the manual REPL_PROMOTE path is unchanged.
    pub repl_auto_promote: bool,
    /// Election electorate besides this node (`host:port` each). A
    /// candidate needs a majority of `peers + self`; with no peers a lone
    /// replica self-promotes (documented single-replica caveat). Also
    /// settable at runtime via [`ServerState::set_repl_peers`] — soak
    /// harnesses only learn ports after spawning.
    pub repl_peers: Vec<String>,
    /// Base suspicion timeout: a replica that has heard nothing from its
    /// primary for this long (plus seeded jitter) declares it dead. Only
    /// consulted with `repl_auto_promote`.
    pub repl_suspect: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            mode: Mode::Gocc,
            port: 0,
            workers: 2,
            shards: 4,
            capacity_per_shard: 1 << 14,
            write_timeout: Duration::from_secs(5),
            drain_timeout: Duration::from_millis(500),
            queue_limit: 256,
            brownout: BrownoutConfig::default(),
            fault_plan: None,
            load_plan: None,
            trace_sample_n: 64,
            data_dir: None,
            wal: WalConfig::default(),
            replica_of: None,
            repl_accept: false,
            repl_min_acks: 0,
            repl_lease: Duration::from_millis(500),
            repl_ack_timeout: Duration::from_millis(1000),
            repl_fault_plan: None,
            repl_seed: 0x5ca1_ab1e,
            repl_auto_promote: false,
            repl_peers: Vec::new(),
            repl_suspect: Duration::from_millis(750),
        }
    }
}

/// Shared server state: the runtime + store under test, plus counters.
pub struct ServerState {
    rt: GoccRuntime,
    store: ShardedStore,
    config: ServerConfig,
    shutdown: AtomicBool,
    counters: ServerCounters,
    brownout: BrownoutController,
    /// The durability subsystem, when `data_dir` is configured.
    wal: Option<Arc<Wal>>,
    /// The replication feed, when this node is (or can become) part of a
    /// replication topology. Created at boot, before the listener opens —
    /// a feed installed later would race the syncer and lose records.
    repl_feed: Option<Arc<ReplFeed>>,
    /// The node's role in the cluster: every election rule runs under
    /// this one lock, and so does the replica sink's batch apply.
    role: Mutex<Role>,
    /// The role's replica flag for the request path, set only under its lock.
    replica: AtomicBool,
    /// Replica-side apply counters for the STATS `repl` object.
    replica_stats: repl::ReplicaCounters,
    /// Build identity echoed in the boot line and STATS header, from
    /// `BENCH_GIT_REV`.
    git_rev: String,
    /// What ends each thread's idle wait when work arrives that no socket
    /// of its own signals; shared with the WAL syncer's tap.
    wakeups: Arc<Wakeups>,
}

/// What ends each serving thread's idle wait when work arrives that no
/// socket of its own signals — a dispatched connection, a durable record,
/// a replica's ack, records for a replica's stream, a due checkpoint,
/// promotion, a replica's new upstream, shutdown — and the per-worker
/// facts that say whom a piece of news concerns.
struct Wakeups {
    /// One per worker, by index, then the replica sink's, the acceptor's
    /// and the checkpointer's.
    wakers: Vec<idle::Waker>,
    /// Per worker, then the sink: it looked at a parked answer or ACK the
    /// log had not settled.
    on_wal: Vec<AtomicBool>,
    /// Per worker: the replica streams it owns.
    streams: Vec<AtomicUsize>,
}

impl Wakeups {
    fn new(workers: usize) -> io::Result<Wakeups> {
        Ok(Wakeups {
            wakers: (0..workers + 3)
                .map(|_| idle::Waker::new())
                .collect::<io::Result<_>>()?,
            on_wal: (0..=workers).map(|_| AtomicBool::new(false)).collect(),
            streams: (0..workers).map(|_| AtomicUsize::new(0)).collect(),
        })
    }

    /// The replica sink's slot among the wakers and the `on_wal` flags.
    fn sink(&self) -> usize {
        self.streams.len()
    }

    /// What the replica sink waits on, beside its sockets.
    fn replica_sink(&self) -> &idle::Waker {
        &self.wakers[self.sink()]
    }

    fn acceptor(&self) -> &idle::Waker {
        &self.wakers[self.sink() + 1]
    }

    fn checkpointer(&self) -> &idle::Waker {
        &self.wakers[self.sink() + 2]
    }

    /// Wakes every worker but `awake`, which just recorded a replica's
    /// ack: the ack may settle a response one of them parked.
    fn wake_workers_but(&self, awake: usize) {
        for (w, waker) in self.wakers[..self.sink()].iter().enumerate() {
            if w != awake {
                waker.wake();
            }
        }
    }

    /// Flags `slot` (a worker, or the sink) as waiting on the log: called
    /// before each look at a parked answer's durable state. The fences
    /// pair with [`Wakeups::wal_settled`]'s: either the look sees the
    /// syncer's pass, or that pass sees the flag and wakes the waiter.
    fn await_wal(&self, slot: usize) {
        self.on_wal[slot].store(true, Ordering::Relaxed);
        fence(Ordering::SeqCst);
    }

    /// After a WAL pass: wakes the workers and the sink that flagged it.
    fn wal_settled(&self) {
        fence(Ordering::SeqCst);
        for (flag, waker) in self.on_wal.iter().zip(&self.wakers) {
            if flag.swap(false, Ordering::Relaxed) {
                waker.wake();
            }
        }
    }

    /// Counts a replica stream `worker` took on, or let go.
    fn own_stream(&self, worker: usize, taken: bool) {
        if taken {
            self.streams[worker].fetch_add(1, Ordering::Relaxed);
        } else {
            self.streams[worker].fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// The feed took records: wakes every worker that owns a replica
    /// stream but `awake`, which is the one publishing.
    fn feed_moved(&self, awake: usize) {
        for (w, (streams, waker)) in self.streams.iter().zip(&self.wakers).enumerate() {
            if w != awake && streams.load(Ordering::Relaxed) > 0 {
                waker.wake();
            }
        }
    }
}

/// The server's tap on its WAL: it hands durable records to the
/// replication feed, if there is one, and after every syncer pass wakes
/// whoever waits on what the pass moved.
struct ServerTap {
    wakeups: Arc<Wakeups>,
    feed: Option<Arc<ReplFeed>>,
    /// The feed took records in the pass not settled yet.
    published: AtomicBool,
}

impl DurableTap for ServerTap {
    fn publish(&self, shard: u32, records: &[Staged]) {
        if let Some(feed) = &self.feed {
            feed.publish(shard, records);
            self.published.store(true, Ordering::Relaxed);
        }
    }

    fn settled(&self, wal: &Wal) {
        self.wakeups.wal_settled();
        if self.published.swap(false, Ordering::Relaxed) {
            self.wakeups.feed_moved(usize::MAX);
        }
        if wal.should_checkpoint() {
            self.wakeups.checkpointer().wake();
        }
    }
}

impl ServerState {
    /// What [`spawn`] serves from, without threads, for a [`Worker`] to run.
    pub fn new(config: ServerConfig) -> io::Result<Self> {
        let rt = GoccRuntime::new(GoccConfig::with_telemetry());
        rt.tracer().configure(config.trace_sample_n, TRACE_SEED);
        let store = ShardedStore::new(config.shards, config.capacity_per_shard);
        // Recovery before the listener opens: replay checkpoint + WAL tail
        // into the store, so the first accepted connection already sees
        // every write the previous process acknowledged.
        let mut recovered_versions = vec![0u64; config.shards.max(1)];
        let wal = match &config.data_dir {
            Some(dir) => {
                let (wal, recovered) = Wal::open(dir, config.shards.max(1), config.wal.clone())?;
                store.restore_all(rt.htm(), &recovered.shards);
                recovered_versions = recovered.shards.iter().map(|s| s.seq).collect();
                Some(wal)
            }
            None => None,
        };
        let repl_feed = (config.repl_accept || config.replica_of.is_some()).then(|| {
            Arc::new(ReplFeed::new(
                ReplConfig {
                    shards: config.shards.max(1),
                    min_acks: config.repl_min_acks,
                    lease: config.repl_lease,
                    ..ReplConfig::default()
                },
                &recovered_versions,
            ))
        });
        let wakeups = Arc::new(Wakeups::new(config.workers)?);
        // The tap, and the feed behind it, must be in place before the
        // first write: records synced before `set_tap` are never
        // replayed, so a late feed would stall at the gap forever.
        if let Some(wal) = &wal {
            wal.set_tap(Arc::new(ServerTap {
                wakeups: Arc::clone(&wakeups),
                feed: repl_feed.clone(),
                published: AtomicBool::new(false),
            }));
        }
        Ok(ServerState {
            rt,
            store,
            wakeups,
            shutdown: AtomicBool::new(false),
            counters: ServerCounters::new(config.workers),
            brownout: BrownoutController::new(config.brownout),
            wal,
            repl_feed,
            role: Mutex::new(Role::new(
                config.replica_of.clone(),
                config.repl_peers.clone(),
                format!("127.0.0.1:{}", config.port),
            )),
            replica: AtomicBool::new(config.replica_of.is_some()),
            replica_stats: repl::ReplicaCounters::default(),
            git_rev: std::env::var("BENCH_GIT_REV").unwrap_or_else(|_| "unknown".to_string()),
            config,
        })
    }

    /// The durability subsystem, when the server runs with one.
    #[must_use]
    pub fn wal(&self) -> Option<&Arc<Wal>> {
        self.wal.as_ref()
    }

    /// The replication feed, when this node participates in replication.
    #[must_use]
    pub fn repl_feed(&self) -> Option<&Arc<ReplFeed>> {
        self.repl_feed.as_ref()
    }

    /// Whether this node currently answers writes with `NotPrimary`.
    #[must_use]
    pub fn is_replica(&self) -> bool {
        self.replica.load(Ordering::SeqCst)
    }

    /// `"primary"` / `"replica"` — the boot-line and STATS spelling.
    #[must_use]
    pub fn role_name(&self) -> &'static str {
        if self.is_replica() {
            "replica"
        } else {
            "primary"
        }
    }

    /// Build identity (`BENCH_GIT_REV`, `"unknown"` when unset).
    #[must_use]
    pub fn git_rev(&self) -> &str {
        &self.git_rev
    }

    /// Last known primary address (the replica's upstream and the
    /// `NotPrimary` redirect hint); empty when unknown.
    #[must_use]
    pub fn upstream_hint(&self) -> String {
        self.role().upstream().to_string()
    }

    /// Highest election epoch this node has seen.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.role().epoch()
    }

    /// Replaces the election electorate (soak harnesses only learn peer
    /// ports after spawning the peers).
    pub fn set_repl_peers(&self, peers: Vec<String>) {
        self.role().peers = peers;
    }

    /// The role lock, recovered from poison: each `Role` rule is done
    /// writing before anything under the lock can panic.
    pub(crate) fn role(&self) -> MutexGuard<'_, Role> {
        self.role.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs a promotion `rule` under the role lock and, if it made this
    /// node the primary, re-bases the feed on the store's versions (the
    /// replica's applies bypassed the tap) before the lock drops, so a
    /// batch the sink applies lands before the re-base or sees the role.
    /// Subscribers at other versions get flagged for snapshot resync.
    pub(crate) fn promote(
        &self,
        engine: &Engine<'_>,
        rule: impl FnOnce(&mut Role) -> bool,
    ) -> bool {
        let mut role = self.role();
        if !rule(&mut role) {
            return false;
        }
        self.replica.store(false, Ordering::SeqCst);
        if let Some(feed) = &self.repl_feed {
            feed.reset_versions(&self.store.versions(engine));
        }
        drop(role);
        // The sink exits on promotion; end its wait now.
        self.wakeups.replica_sink().wake();
        true
    }

    /// Times this node's failure detector declared its upstream dead.
    /// Exposed for harnesses that poll detection latency in-process.
    #[must_use]
    pub fn repl_suspicions(&self) -> u64 {
        self.replica_stats.suspicions.load(Ordering::Relaxed)
    }

    /// Elections this node started as a candidate.
    #[must_use]
    pub fn repl_elections(&self) -> u64 {
        self.replica_stats.elections.load(Ordering::Relaxed)
    }

    /// Welcomes/batches this node rejected for carrying a stale epoch.
    #[must_use]
    pub fn repl_stale_epoch_rejects(&self) -> u64 {
        self.replica_stats
            .stale_epoch_rejects
            .load(Ordering::Relaxed)
    }

    /// The execution mode.
    #[must_use]
    pub fn mode(&self) -> Mode {
        self.config.mode
    }

    /// The server's counters.
    #[must_use]
    pub fn counters(&self) -> &ServerCounters {
        &self.counters
    }

    /// Whether shutdown has been requested.
    #[must_use]
    pub fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for w in &self.wakeups.wakers {
            w.wake();
        }
    }

    /// The brownout controller (state, transition counters).
    #[must_use]
    pub fn brownout(&self) -> &BrownoutController {
        &self.brownout
    }

    /// The HEALTH response: brownout state plus shed/deadline counters.
    #[must_use]
    pub fn health_response(&self) -> Response<'static> {
        Response::Health {
            state: self.brownout.state() as u8,
            shed_total: self.counters.shed_total(),
            deadline_misses: self.counters.deadline_misses(),
        }
    }

    /// End-of-pump bookkeeping for one worker: publish the pass's queue
    /// depth, feed the brownout controller one observation (idle passes
    /// feed zeros, which is what decays the EWMAs back to Healthy), and
    /// take the load plan's stall draw, slept and added to the pass's
    /// instant.
    fn finish_pump(&self, wctx: &mut WorkerCtx) {
        self.counters.set_queue_depth(wctx.worker, wctx.frames_seen);
        let mean_lat_ns = if wctx.lat_count > 0 {
            wctx.lat_sum_ns as f64 / wctx.lat_count as f64
        } else {
            0.0
        };
        self.brownout.observe(wctx.frames_seen as f64, mean_lat_ns);
        wctx.frames_seen = 0;
        wctx.lat_sum_ns = 0;
        wctx.lat_count = 0;
        if let Some(plan) = &self.config.load_plan {
            if let Some(LoadFault::Stall(d)) = plan.draw_worker(wctx.worker as u64) {
                std::thread::sleep(d);
                wctx.now += d;
            }
        }
    }

    /// Renders the STATS document: server identity, counters, live entry
    /// count, overload state, flight-recorder counters under `"trace"`,
    /// and the runtime's full [`gocc_telemetry::TelemetryReport`] JSON
    /// spliced in under `"telemetry"`.
    #[must_use]
    pub fn stats_json(&self) -> String {
        let engine = Engine::new(&self.rt, self.config.mode);
        let entries = self.store.total_entries(&engine);
        let telemetry = self
            .rt
            .telemetry()
            .map(|t| t.report().to_json())
            .unwrap_or_else(|| "null".to_string());
        let tracer = self.rt.tracer();
        let mut tw = gocc_telemetry::JsonWriter::new();
        tw.begin_object()
            .field_u64("sample_n", tracer.sample_n())
            .field_u64("spans_pushed", tracer.pushed())
            .field_u64("spans_dropped", tracer.dropped())
            .field_u64("spans_taken", tracer.taken())
            .end_object();
        let wal_json = match &self.wal {
            Some(wal) => wal.stats_json(),
            None => "null".to_string(),
        };
        let repl_json = match &self.repl_feed {
            Some(_) if self.is_replica() => self.replica_stats.json(
                &self.upstream_hint(),
                &self.store.versions(&engine),
                self.epoch(),
            ),
            Some(feed) => feed.stats_json(),
            None => "null".to_string(),
        };
        self.counters.to_json(
            mode_name(self.config.mode),
            self.git_rev(),
            self.role_name(),
            self.config.workers as u64,
            self.config.shards as u64,
            entries,
            self.brownout.state().name(),
            self.brownout.transitions(),
            &telemetry,
            &tw.finish(),
            &wal_json,
            &repl_json,
        )
    }

    /// Drains up to `max` flight-recorder spans (all of them when `max` is
    /// zero) into the TRACE response document.
    #[must_use]
    pub fn trace_json(&self, max: u32) -> String {
        let tracer = self.rt.tracer();
        let cap = if max == 0 { usize::MAX } else { max as usize };
        let (spans, truncated) = tracer.take(cap);
        trace::spans_json(&spans, tracer.pushed(), tracer.dropped(), truncated)
    }

    /// Copies (without draining) every retained span into a Chrome
    /// trace-event JSON document, for the soak binaries' shutdown dumps.
    #[must_use]
    pub fn chrome_trace_json(&self) -> String {
        trace::chrome_trace_json(&self.rt.tracer().drain())
    }
}

/// Per-worker pump-pass scratch state, reset by
/// [`ServerState::finish_pump`].
pub(crate) struct WorkerCtx {
    /// This worker's index (stable across the server's lifetime).
    pub(crate) worker: usize,
    /// The pass's instant: every time rule the pass applies reads it.
    pub(crate) now: Instant,
    /// Frames seen this pump pass — the admission queue depth.
    pub(crate) frames_seen: u64,
    /// Summed engine-execution nanoseconds this pass.
    pub(crate) lat_sum_ns: u64,
    /// Requests executed this pass.
    pub(crate) lat_count: u64,
}

/// `"lock"` / `"gocc"` — the CLI and STATS spelling of a [`Mode`].
#[must_use]
pub fn mode_name(mode: Mode) -> &'static str {
    match mode {
        Mode::Lock => "lock",
        Mode::Gocc => "gocc",
    }
}

/// Parses a [`mode_name`] back into a [`Mode`].
pub fn parse_mode(s: &str) -> Result<Mode, String> {
    match s {
        "lock" => Ok(Mode::Lock),
        "gocc" => Ok(Mode::Gocc),
        other => Err(format!("unknown mode {other:?} (expected lock|gocc)")),
    }
}

/// A running server: join handles plus shared state.
pub struct ServerHandle {
    port: u16,
    state: Arc<ServerState>,
    acceptor: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
    checkpointer: Option<JoinHandle<()>>,
    replicator: Option<JoinHandle<()>>,
}

/// Final accounting returned by [`ServerHandle::join`].
#[derive(Clone, Debug)]
pub struct ServerSummary {
    /// Connections accepted over the server's lifetime.
    pub conns_accepted: u64,
    /// Connections closed (EOF, errors, shutdown).
    pub conns_closed: u64,
    /// Requests served, all verbs.
    pub requests: u64,
    /// Frames that failed to parse (each cost its connection).
    pub malformed_frames: u64,
    /// Oversized frames skipped with their connection kept alive.
    pub oversized_frames: u64,
    /// Connections dropped for unresponsive reads on the client side.
    pub slow_client_drops: u64,
    /// Requests shed by admission control, all causes.
    pub shed_total: u64,
    /// Deadline misses (expired before or during execution).
    pub deadline_misses: u64,
    /// The final STATS JSON document.
    pub stats_json: String,
}

impl ServerHandle {
    /// The bound port (useful with `port: 0`).
    #[must_use]
    pub fn port(&self) -> u16 {
        self.port
    }

    /// The shared state (counters, stats document).
    #[must_use]
    pub fn state(&self) -> &ServerState {
        &self.state
    }

    /// A cloned `Arc` of the shared state, for observers that outlive
    /// borrows of the handle (e.g. a soak's watcher thread).
    #[must_use]
    pub fn state_arc(&self) -> Arc<ServerState> {
        Arc::clone(&self.state)
    }

    /// Flags shutdown without a wire round-trip.
    pub fn request_shutdown(&self) {
        self.state.request_shutdown();
    }

    /// Waits for the acceptor and all workers to exit. Callers that did
    /// not send a SHUTDOWN frame should [`ServerHandle::request_shutdown`]
    /// first, or this blocks until a client does.
    #[must_use = "the summary carries the final stats"]
    pub fn join(self) -> ServerSummary {
        let _ = self.acceptor.join();
        for w in self.workers {
            let _ = w.join();
        }
        if let Some(ck) = self.checkpointer {
            let _ = ck.join();
        }
        if let Some(rp) = self.replicator {
            let _ = rp.join();
        }
        // Flush and close the log last — after this, everything the
        // workers acknowledged is on disk and the segments are closed.
        if let Some(wal) = &self.state.wal {
            wal.shutdown();
        }
        let c = &self.state.counters;
        ServerSummary {
            conns_accepted: c.accepted(),
            conns_closed: c.closed(),
            requests: c.total_requests(),
            malformed_frames: c.malformed(),
            oversized_frames: c.oversized(),
            slow_client_drops: c.slow_drops(),
            shed_total: c.shed_total(),
            deadline_misses: c.deadline_misses(),
            stats_json: self.state.stats_json(),
        }
    }
}

/// Binds 127.0.0.1:`port` and starts the acceptor + worker threads.
pub fn spawn(config: ServerConfig) -> io::Result<ServerHandle> {
    assert!(config.workers >= 1, "need at least one worker");
    assert!(config.shards >= 1, "need at least one shard");
    let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, config.port))?;
    listener.set_nonblocking(true)?;
    let port = listener.local_addr()?.port();
    let state = Arc::new(ServerState::new(ServerConfig { port, ..config })?);

    // A thread that cannot start shuts the server down, and the threads
    // already running see the flag and exit.
    let start = |name: String, run: Box<dyn FnOnce() + Send>| {
        let started = std::thread::Builder::new().name(name).spawn(run);
        started.inspect_err(|_| state.request_shutdown())
    };
    let mut senders: Vec<Sender<TcpStream>> = Vec::new();
    let mut workers = Vec::new();
    for w in 0..state.config.workers {
        let (tx, rx) = std::sync::mpsc::channel();
        senders.push(tx);
        let worker_state = Arc::clone(&state);
        let run = Box::new(move || worker_loop(w, &rx, &worker_state));
        match start(format!("goccd-worker-{w}"), run) {
            Ok(handle) => workers.push(handle),
            Err(e) => {
                // Partial startup: the already-running workers exit once
                // their sender is gone; report the failure instead of
                // panicking with threads leaked.
                drop(senders);
                for h in workers {
                    let _ = h.join();
                }
                return Err(e);
            }
        }
    }

    let acceptor_state = Arc::clone(&state);
    let run = Box::new(move || acceptor_loop(&listener, senders, &acceptor_state));
    let acceptor = match start("goccd-acceptor".into(), run) {
        Ok(handle) => handle,
        Err(e) => {
            for h in workers {
                let _ = h.join();
            }
            return Err(e);
        }
    };

    let checkpointer = match &state.wal {
        Some(wal) if state.config.wal.checkpoint_every > 0 => {
            let (ck_state, ck_wal) = (Arc::clone(&state), Arc::clone(wal));
            let run = Box::new(move || checkpoint_loop(&ck_state, &ck_wal));
            Some(start("goccd-checkpoint".into(), run)?)
        }
        _ => None,
    };

    // The replica's sink thread: dials the upstream, applies the stream,
    // exits on shutdown or promotion.
    let replicator = if state.config.replica_of.is_some() {
        let rp_state = Arc::clone(&state);
        let run = Box::new(move || repl::replica_loop(&rp_state));
        Some(start("goccd-replica".into(), run)?)
    } else {
        None
    };

    Ok(ServerHandle {
        port,
        state,
        acceptor,
        workers,
        checkpointer,
        replicator,
    })
}

/// Periodic checkpointing: every time the WAL accumulates
/// [`WalConfig::checkpoint_every`] records, rotate to a fresh segment,
/// snapshot every shard (each in one read section), commit the image to
/// the side file and delete the covered segments. Crashes at any point
/// leave a recoverable directory — `crates/wal` owns and tests that. In
/// between it waits on its waker, which the WAL tap wakes once a
/// checkpoint is due and shutdown wakes too.
fn checkpoint_loop(state: &ServerState, wal: &Wal) {
    let engine = Engine::new(&state.rt, state.config.mode);
    let mut set = idle::PollSet::default();
    while !state.shutting_down() {
        if !wal.should_checkpoint() {
            idle::wait(state.wakeups.checkpointer(), &mut set, None);
        } else if checkpoint(state, wal, &engine).is_err() {
            return; // log dead (seeded crash or I/O failure)
        }
    }
}

/// One checkpoint: rotate the log, snapshot every shard after the
/// rotation, commit the image and delete the segments it covers. Blocks
/// until the syncer has rotated.
fn checkpoint(state: &ServerState, wal: &Wal, engine: &Engine<'_>) -> Result<(), WalError> {
    let (base_gen, retired) = wal.begin_checkpoint()?;
    let image = CheckpointImage {
        base_gen,
        shards: state.store.snapshot_all(engine),
    };
    wal.finish_checkpoint(&image, &retired)
}

/// Pause after a failed `accept()`: this at first, doubling on each
/// consecutive failure up to the cap.
const ACCEPT_BACKOFF_MIN: Duration = Duration::from_millis(1);
const ACCEPT_BACKOFF_MAX: Duration = Duration::from_millis(100);

fn acceptor_loop(listener: &TcpListener, senders: Vec<Sender<TcpStream>>, state: &ServerState) {
    let waker = state.wakeups.acceptor();
    let mut set = idle::PollSet::default();
    let mut next = 0usize;
    let mut backoff = ACCEPT_BACKOFF_MIN;
    while !state.shutting_down() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                backoff = ACCEPT_BACKOFF_MIN;
                let _ = stream.set_nodelay(true);
                if stream.set_nonblocking(true).is_err() {
                    state.counters.note_accept_error();
                    continue;
                }
                state.counters.note_accept();
                // Shard the connection onto a worker; a dead worker (only
                // possible on panic) just drops the stream.
                let worker = next % senders.len();
                let _ = senders[worker].send(stream);
                state.wakeups.wakers[worker].wake();
                next += 1;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                set.clear();
                set.push(listener.as_raw_fd(), idle::POLLIN);
                idle::wait(waker, &mut set, None);
            }
            // EMFILE, ENFILE, ECONNABORTED…: the pending connection is
            // still queued, so the listener stays readable — pause on
            // the waker alone (shutdown still gets through), longer each
            // time, instead of failing in a hot loop.
            Err(_) => {
                state.counters.note_accept_error();
                set.clear();
                idle::wait(waker, &mut set, Some(backoff));
                backoff = (backoff * 2).min(ACCEPT_BACKOFF_MAX);
            }
        }
    }
    // Dropping the senders tells each worker no more connections are
    // coming.
}

/// What a [`Worker::pass`] leaves its driver to do: pass again, or wait on
/// the waker (and the sockets unless `blind`) until `until`, if any.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Next {
    Pass,
    Wait { blind: bool, until: Option<Instant> },
}

/// One worker's connections and what its passes carry. A pass is a
/// function of the instant it is handed: every time rule under it reads
/// that, and only a duration of work just done reads a clock (the trace
/// clock's). `worker_loop` drives one on the real clock, a test on its own.
pub struct Worker<'s> {
    state: &'s ServerState,
    engine: Engine<'s>,
    conns: Vec<Conn>,
    wctx: WorkerCtx,
    tick: idle::Tick,
    /// Frames in the last pass that handled any, until an idle decision
    /// has used it.
    last_frames: u64,
    /// The instant of the last idle decision, if it was to block.
    blocked_at: Option<Instant>,
}

impl<'s> Worker<'s> {
    /// Worker `worker` of `state`, made at `now` and owning no connection.
    #[must_use]
    pub fn new(state: &'s ServerState, worker: usize, now: Instant) -> Self {
        Worker {
            state,
            engine: Engine::new(&state.rt, state.config.mode),
            conns: Vec::new(),
            wctx: WorkerCtx {
                worker,
                now,
                frames_seen: 0,
                lat_sum_ns: 0,
                lat_count: 0,
            },
            tick: idle::Tick::default(),
            last_frames: 0,
            blocked_at: None,
        }
    }

    /// Takes on a dispatched connection (non-blocking) at `now`.
    pub fn adopt(&mut self, stream: TcpStream, now: Instant) {
        self.conns.push(Conn::new(stream, self.state, now));
    }

    /// One pass over every connection at `now` (which a seeded stall moves
    /// on), then, if nothing moved and no shutdown is asked, the one idle
    /// decision. Two or more frames in the last pass that had any mean a
    /// peer that pipelines: the next burst is taken at the next tick, one
    /// `IDLE_PASS` after the last however late that wake-up came, which
    /// serves a window per period. So does an idle pass with work on a
    /// clock: a brownout state only idle passes walk back, or a seeded
    /// plan. That timed pass is blind: a ready socket does not end it
    /// (what paces `serve_d32`; ROADMAP 18), the waker does. Otherwise
    /// block on the sockets and the waker until the first connection's
    /// own deadline; the next pass hands the controller the idle passes
    /// the block stood in for, or sparse traffic would read as one load.
    pub fn pass(&mut self, now: Instant) -> Next {
        let (state, engine, wctx) = (self.state, &self.engine, &mut self.wctx);
        if let Some(blocked_at) = self.blocked_at.take() {
            state
                .brownout
                .observe_idle(now.saturating_duration_since(blocked_at));
        }
        wctx.now = now;
        let mut progressed = false;
        self.conns
            .retain_mut(|c| match c.pump(engine, state, wctx) {
                PumpOutcome::Alive { made_progress } => {
                    progressed |= made_progress;
                    true
                }
                PumpOutcome::Close => {
                    c.on_close(state, wctx.worker);
                    false
                }
            });
        if wctx.frames_seen > 0 {
            self.last_frames = wctx.frames_seen;
        }
        state.finish_pump(wctx);
        if progressed || state.shutting_down() {
            return Next::Pass;
        }
        let now = wctx.now;
        let clocked = state.brownout.state() != HealthState::Healthy
            || state.config.load_plan.is_some()
            || state.config.fault_plan.is_some();
        let blind = self.last_frames >= 2 || clocked;
        self.last_frames = 0;
        state.counters.note_idle(wctx.worker, !blind);
        let until = if blind {
            Some(self.tick.due(now))
        } else {
            self.tick.forget();
            self.blocked_at = Some(now);
            let deadlines = self.conns.iter().filter_map(|c| c.deadline(state, now));
            deadlines.min()
        };
        Next::Wait { blind, until }
    }

    /// Refills `set` with what the wait behind the last idle decision
    /// watches beside the waker: each connection's [`Conn::interest`] if
    /// it blocks, nothing for a timed pass.
    pub(crate) fn watch(&self, set: &mut idle::PollSet) {
        set.clear();
        for c in self.conns.iter().filter(|_| self.blocked_at.is_some()) {
            set.push(c.raw_fd(), c.interest());
        }
    }
}

/// Drives worker `worker`'s passes on the real clock, which it reads
/// before each pass and each wait; nothing under it does. It owns the
/// dispatcher's channel, the waker and the poll set.
fn worker_loop(worker: usize, rx: &Receiver<TcpStream>, state: &ServerState) {
    let mut now = Instant::now();
    let mut w = Worker::new(state, worker, now);
    idle::exact_timers();
    let mut set = idle::PollSet::default();
    loop {
        // Adopt newly dispatched connections.
        let dispatcher_gone = loop {
            match rx.try_recv() {
                Ok(stream) => w.adopt(stream, now),
                Err(e) => break e == TryRecvError::Disconnected,
            }
        };
        let next = w.pass(now);
        if state.shutting_down() {
            return drain_and_close(&mut w, &mut set);
        }
        if dispatcher_gone && w.conns.is_empty() {
            return;
        }
        if let Next::Wait { until, .. } = next {
            w.watch(&mut set);
            let timeout = until.map(|until| until.saturating_duration_since(Instant::now()));
            idle::wait(&state.wakeups.wakers[worker], &mut set, timeout);
        }
        now = Instant::now();
    }
}

/// Bounded final flush: every connection gets up to
/// [`ServerConfig::drain_timeout`] to answer what it parked and send what
/// it queued, and closes once it owes nothing or its peer is gone. In
/// between, wait for a socket to take bytes, or one `IDLE_PASS` while an
/// answer is parked.
fn drain_and_close(w: &mut Worker<'_>, set: &mut idle::PollSet) {
    let state = w.state;
    let deadline = Instant::now() + state.config.drain_timeout;
    loop {
        w.wctx.now = Instant::now();
        let (wctx, give_up) = (&w.wctx, w.wctx.now >= deadline);
        w.conns.retain_mut(|c| {
            let owes = c.drain(state, wctx, give_up);
            if !owes {
                c.on_close(state, wctx.worker);
            }
            owes
        });
        if w.conns.is_empty() {
            return;
        }
        set.clear();
        for c in w.conns.iter().filter(|c| c.has_pending_output()) {
            set.push(c.raw_fd(), idle::POLLOUT);
        }
        let mut timeout = deadline - wctx.now;
        if w.conns.iter().any(Conn::has_parked) {
            timeout = timeout.min(IDLE_PASS);
        }
        idle::wait(&state.wakeups.wakers[wctx.worker], set, Some(timeout));
    }
}
