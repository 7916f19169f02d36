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
//!   outright (no connection is ever touched by two threads), pumping them
//!   with non-blocking reads/writes. A worker with nothing to do waits in
//!   `idle::wait`: on its connections' readiness, or — when its peers
//!   pipeline or an idle-pass duty runs on a clock — on its waker alone
//!   until the next tick of an `IDLE_PASS` cadence; see `worker_loop`. Worker
//!   state is plain `&mut`; the only cross-thread state is the
//!   [`ServerState`] behind an `Arc` — the store (whose interior
//!   synchronization *is* the system under test), atomic counters, the
//!   shutdown flag and the wakers.
//! * Connections that subscribe as replication streams (REPL_HELLO) are
//!   handed off to one dedicated **repl-out** thread: a worker may block
//!   in `wait_replicated` for a `min_acks` write, and the subscriber
//!   stream that ack rides on must keep pumping while it does. It waits
//!   in `idle::wait` too: on its waker alone, blocked while it owns no
//!   subscriber and on the same cadence while it owns one.
//! * A **malformed frame kills its connection, never the server**: framing
//!   or decode errors send a final `Error` response and close that one
//!   connection. IO errors likewise. A worker never panics on input.
//! * **Slow clients** that stop draining their socket are disconnected
//!   once a pending write makes no progress for
//!   [`ServerConfig::write_timeout`].
//! * **Graceful shutdown** (SHUTDOWN verb or
//!   [`ServerHandle::request_shutdown`]): the acceptor stops, workers
//!   flush pending responses (bounded drain, [`ServerConfig::drain_timeout`]),
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
//! * **Memory bound**: a connection holding more than
//!   [`ServerConfig::recv_high_water`] unprocessed bytes stops being read
//!   until it drains — TCP backpressure caps per-connection memory.
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
use std::net::{Ipv4Addr, TcpListener};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gocc_faultplane::{LoadFault, LoadFaultPlan, TransportFaultPlan};
use gocc_optilock::{GoccConfig, GoccRuntime};
pub use gocc_repl::{ReplConfig, ReplFeed, ReplWaitError};
use gocc_telemetry::trace;
use gocc_wal::{CheckpointImage, DurableTap, Wal};
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
    /// Stop reading a connection holding this many unprocessed input
    /// bytes until it drains (per-connection memory bound).
    pub recv_high_water: usize,
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
    /// Seed mixed into flight-recorder trace ids, so two runs with the
    /// same traffic produce the same ids.
    pub trace_seed: u64,
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
            recv_high_water: 256 * 1024,
            brownout: BrownoutConfig::default(),
            fault_plan: None,
            load_plan: None,
            trace_sample_n: 64,
            trace_seed: 0x9e37_79b9_7f4a_7c15,
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
    /// Whether this node currently answers writes with `NotPrimary`.
    replica: AtomicBool,
    /// Serializes promotion against the replica sink's batch applies:
    /// the sink holds this while it checks the role and mutates the
    /// store, so `promote_to_primary` can never re-base the feed while
    /// a buffered batch is mid-apply (which would advance the store past
    /// the feed's new base and stall replication forever).
    promote_gate: Mutex<()>,
    /// Last known primary address: the replica's upstream, and the
    /// redirect hint served with `NotPrimary`.
    upstream: Mutex<String>,
    /// Highest election epoch this node has seen. Monotone; stamped into
    /// every outgoing REPL_BATCH/REPL_WELCOME so a deposed primary's
    /// stream is recognizably stale, and adopted from whatever higher
    /// epoch arrives (welcome, batch, vote, announce).
    epoch: AtomicU64,
    /// Highest epoch this node has granted a vote in — one vote per
    /// epoch is what makes at most one winner per epoch possible.
    last_voted_epoch: Mutex<u64>,
    /// Election electorate besides this node (runtime-settable: soak
    /// harnesses only know peer ports after spawning them).
    repl_peers: Mutex<Vec<String>>,
    /// This node's own advertised `host:port`, set once the listener is
    /// bound; what an election winner announces to its peers.
    advertised: Mutex<String>,
    /// Replica-side apply counters for the STATS `repl` object.
    replica_stats: repl::ReplicaCounters,
    /// Build identity echoed in the boot line and STATS header, from
    /// `BENCH_GIT_REV`.
    git_rev: String,
    /// One per worker, by index, then the acceptor's, then repl-out's:
    /// what ends their idle wait when work arrives that no socket of
    /// theirs signals (a dispatched connection, a subscriber handed
    /// over, shutdown).
    wakers: Vec<idle::Waker>,
}

impl ServerState {
    fn new(config: ServerConfig) -> io::Result<Self> {
        let rt = GoccRuntime::new(GoccConfig::with_telemetry());
        rt.tracer()
            .configure(config.trace_sample_n, config.trace_seed);
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
        // The feed must exist (and be tapped into the WAL) before the
        // first write: records synced before `set_tap` are never
        // replayed, so a late feed would stall at the gap forever.
        let repl_feed = if config.repl_accept || config.replica_of.is_some() {
            let feed = Arc::new(ReplFeed::new(
                ReplConfig {
                    shards: config.shards.max(1),
                    min_acks: config.repl_min_acks,
                    lease: config.repl_lease,
                    ..ReplConfig::default()
                },
                &recovered_versions,
            ));
            if let Some(wal) = &wal {
                wal.set_tap(Arc::clone(&feed) as Arc<dyn DurableTap>);
            }
            Some(feed)
        } else {
            None
        };
        let wakers = (0..config.workers + 2)
            .map(|_| idle::Waker::new())
            .collect::<io::Result<_>>()?;
        Ok(ServerState {
            rt,
            store,
            wakers,
            shutdown: AtomicBool::new(false),
            counters: ServerCounters::new(config.workers),
            brownout: BrownoutController::new(config.brownout),
            wal,
            repl_feed,
            replica: AtomicBool::new(config.replica_of.is_some()),
            promote_gate: Mutex::new(()),
            upstream: Mutex::new(config.replica_of.clone().unwrap_or_default()),
            epoch: AtomicU64::new(0),
            last_voted_epoch: Mutex::new(0),
            repl_peers: Mutex::new(config.repl_peers.clone()),
            advertised: Mutex::new(String::new()),
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
        self.upstream.lock().map(|g| g.clone()).unwrap_or_default()
    }

    /// Records a new primary address (REPL_PROMOTE repoint, or a
    /// `NotPrimary` hint followed by the replica's sink loop).
    pub fn set_upstream(&self, addr: String) {
        if let Ok(mut g) = self.upstream.lock() {
            *g = addr;
        }
    }

    /// Highest election epoch this node has seen.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Adopts `epoch` if it is higher than anything seen so far (epochs
    /// are monotone — a lower one never wins). Returns the highest known
    /// epoch after the update.
    pub fn observe_epoch(&self, epoch: u64) -> u64 {
        self.epoch.fetch_max(epoch, Ordering::SeqCst).max(epoch)
    }

    /// Grants at most one vote per epoch, and none once this node is a
    /// primary: true exactly when it is a replica and `epoch` is higher
    /// than every epoch it has voted in before. The role is read under the
    /// vote lock, which [`ServerState::promote_elected`] holds across the
    /// role flip, so a grant and this node's own promotion cannot
    /// interleave.
    pub(crate) fn try_vote(&self, epoch: u64) -> bool {
        let mut last = self
            .last_voted_epoch
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if self.is_replica() && epoch > *last {
            *last = epoch;
            true
        } else {
            false
        }
    }

    /// Promotes this node as the winner of the election it stood in at
    /// `epoch` — unless it has voted in a later epoch since (a request its
    /// worker granted while the candidacy was still canvassing). That vote
    /// may be the one that elects the later candidate, so the candidacy it
    /// was cast during is void: without this check both would promote,
    /// one epoch apart. Returns whether the node promoted.
    pub(crate) fn promote_elected(&self, engine: &Engine<'_>, epoch: u64) -> bool {
        let last = self
            .last_voted_epoch
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if *last != epoch {
            return false;
        }
        self.promote_with_epoch(engine, epoch);
        true
    }

    /// The epoch this node would stand in next: above every epoch it has
    /// seen and every epoch it has voted in. A lost candidacy used its
    /// epoch up — this node's vote in it went to itself — so the next one
    /// stands higher instead of asking for the same epoch's votes again.
    pub(crate) fn candidacy_epoch(&self) -> u64 {
        let last = self
            .last_voted_epoch
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        self.epoch().max(*last).saturating_add(1)
    }

    /// The election electorate besides this node.
    #[must_use]
    pub fn repl_peers(&self) -> Vec<String> {
        self.repl_peers
            .lock()
            .map(|g| g.clone())
            .unwrap_or_default()
    }

    /// Replaces the election electorate (soak harnesses only learn peer
    /// ports after spawning the peers).
    pub fn set_repl_peers(&self, peers: Vec<String>) {
        if let Ok(mut g) = self.repl_peers.lock() {
            *g = peers;
        }
    }

    /// This node's advertised `host:port` (what an election winner
    /// announces); empty before the listener binds.
    #[must_use]
    pub fn advertised(&self) -> String {
        self.advertised
            .lock()
            .map(|g| g.clone())
            .unwrap_or_default()
    }

    fn set_advertised(&self, addr: String) {
        if let Ok(mut g) = self.advertised.lock() {
            *g = addr;
        }
    }

    /// Promotes this node to primary: writes are accepted from here on,
    /// and the feed is re-based to the store's current versions — the
    /// replica's apply path bypassed the tap, so the feed's view is
    /// stale until this reset. Subscribers at other versions get flagged
    /// for snapshot resync, which is exactly right after a failover.
    ///
    /// Bumps the epoch past everything seen, so the promotion fences any
    /// still-running older primary's stream.
    pub fn promote_to_primary(&self, engine: &Engine<'_>) {
        let next = self.epoch().saturating_add(1);
        self.promote_with_epoch(engine, next);
    }

    /// [`ServerState::promote_to_primary`] at a specific (election-won)
    /// epoch.
    ///
    /// Holding `promote_gate` across the role flip *and* the feed
    /// re-base makes promotion atomic with respect to the sink's batch
    /// applies: a buffered batch either lands before the re-base (and is
    /// counted in the versions read here) or observes the flipped role
    /// and is rejected.
    pub fn promote_with_epoch(&self, engine: &Engine<'_>, epoch: u64) {
        let _gate = self
            .promote_gate
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        self.observe_epoch(epoch);
        if !self.replica.swap(false, Ordering::SeqCst) {
            return;
        }
        if let Some(feed) = &self.repl_feed {
            feed.reset_versions(&self.store.versions(engine));
        }
        self.set_upstream(String::new());
    }

    /// Times this node's failure detector declared its upstream dead.
    /// Exposed for harnesses that poll detection latency in-process.
    #[must_use]
    pub fn repl_suspicions(&self) -> u64 {
        self.replica_stats.suspicions()
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
        for w in &self.wakers {
            w.wake();
        }
    }

    /// What `goccd-repl-out` waits on, and a worker wakes after handing
    /// it a subscriber.
    fn repl_out_waker(&self) -> &idle::Waker {
        &self.wakers[self.config.workers + 1]
    }

    /// Whether a worker's idle pass has work that runs on a clock, so the
    /// worker must keep taking a pass every `IDLE_PASS` instead of
    /// blocking: a brownout state that only idle observations walk back
    /// to `Healthy`, or a seeded plan whose draws are defined per pass
    /// (load faults in [`ServerState::finish_pump`], transport faults
    /// that make a ready socket read as not ready).
    fn idle_pass_is_clocked(&self) -> bool {
        self.brownout.state() != HealthState::Healthy
            || self.config.load_plan.is_some()
            || self.config.fault_plan.is_some()
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
    /// take the load plan's stall draw.
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
    /// trace-event JSON document, for `goccd --trace-out` and the soak
    /// binaries' shutdown dumps.
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
    repl_pump: Option<JoinHandle<()>>,
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
    /// borrows of the handle (e.g. `goccd --stats-interval-secs`'s
    /// reporter thread).
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
        if let Some(rp) = self.repl_pump {
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
    let state = Arc::new(ServerState::new(config)?);
    state.set_advertised(format!("127.0.0.1:{port}"));

    // Subscriber (REPL_HELLO) connections are pumped by a dedicated
    // thread, never a worker: a worker can block in `wait_replicated`
    // for up to `repl_ack_timeout`, and if it also owned the subscriber
    // stream the awaited batch would never be sent — with one worker (or
    // an unlucky round-robin) every min_acks write would time out and
    // the lease would falsely fence the primary. Workers hand
    // subscribed connections over via this channel.
    let (repl_tx, repl_pump) = if state.repl_feed.is_some() {
        let (tx, rx) = std::sync::mpsc::channel::<Conn>();
        let rp_state = Arc::clone(&state);
        let handle = std::thread::Builder::new()
            .name("goccd-repl-out".into())
            .spawn(move || repl_out_loop(&rx, &rp_state))
            .map_err(|e| {
                state.request_shutdown();
                e
            })?;
        (Some(tx), Some(handle))
    } else {
        (None, None)
    };

    let mut senders: Vec<Sender<std::net::TcpStream>> = Vec::new();
    let mut workers = Vec::new();
    for w in 0..state.config.workers {
        let (tx, rx) = std::sync::mpsc::channel();
        senders.push(tx);
        let worker_state = Arc::clone(&state);
        let worker_repl_tx = repl_tx.clone();
        match std::thread::Builder::new()
            .name(format!("goccd-worker-{w}"))
            .spawn(move || worker_loop(w, &rx, &worker_state, worker_repl_tx))
        {
            Ok(handle) => workers.push(handle),
            Err(e) => {
                // Partial startup: wake the already-running workers (they
                // exit once their sender is gone) and report the failure
                // instead of panicking with threads leaked.
                state.request_shutdown();
                drop(senders);
                for h in workers {
                    let _ = h.join();
                }
                return Err(e);
            }
        }
    }

    let acceptor_state = Arc::clone(&state);
    let acceptor = match std::thread::Builder::new()
        .name("goccd-acceptor".into())
        .spawn(move || acceptor_loop(&listener, senders, &acceptor_state))
    {
        Ok(handle) => handle,
        Err(e) => {
            state.request_shutdown();
            for h in workers {
                let _ = h.join();
            }
            return Err(e);
        }
    };

    let checkpointer = match &state.wal {
        Some(wal) if state.config.wal.checkpoint_every > 0 => {
            let ck_state = Arc::clone(&state);
            let ck_wal = Arc::clone(wal);
            Some(
                std::thread::Builder::new()
                    .name("goccd-checkpoint".into())
                    .spawn(move || checkpoint_loop(&ck_state, &ck_wal))
                    .map_err(|e| {
                        state.request_shutdown();
                        e
                    })?,
            )
        }
        _ => None,
    };

    // The replica's sink thread: dials the upstream, applies the stream,
    // exits on shutdown or promotion.
    let replicator = if state.config.replica_of.is_some() {
        let rp_state = Arc::clone(&state);
        Some(
            std::thread::Builder::new()
                .name("goccd-replica".into())
                .spawn(move || repl::replica_loop(&rp_state))
                .map_err(|e| {
                    state.request_shutdown();
                    e
                })?,
        )
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
        repl_pump,
    })
}

/// Periodic checkpointing: every time the WAL accumulates
/// [`WalConfig::checkpoint_every`] records, rotate to a fresh segment,
/// snapshot every shard (each in one read section), commit the image to
/// the side file and delete the covered segments. Crashes at any point
/// leave a recoverable directory — `crates/wal` owns and tests that.
fn checkpoint_loop(state: &ServerState, wal: &Wal) {
    let engine = Engine::new(&state.rt, state.config.mode);
    while !state.shutting_down() {
        if !wal.should_checkpoint() {
            std::thread::sleep(Duration::from_millis(5));
            continue;
        }
        let (base_gen, retired) = match wal.begin_checkpoint() {
            Ok(x) => x,
            Err(_) => return, // log dead (seeded crash or I/O failure)
        };
        let image = CheckpointImage {
            base_gen,
            shards: state.store.snapshot_all(&engine),
        };
        if wal.finish_checkpoint(&image, &retired).is_err() {
            return;
        }
    }
}

/// Pause after a failed `accept()`: this at first, doubling on each
/// consecutive failure up to the cap.
const ACCEPT_BACKOFF_MIN: Duration = Duration::from_millis(1);
const ACCEPT_BACKOFF_MAX: Duration = Duration::from_millis(100);

fn acceptor_loop(
    listener: &TcpListener,
    senders: Vec<Sender<std::net::TcpStream>>,
    state: &ServerState,
) {
    let waker = &state.wakers[senders.len()];
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
                state.wakers[worker].wake();
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

/// Refills `set` with what an idle worker's connections wait for, and
/// returns the instant the wait must end by — the nearest slow-client
/// eviction — if there is one.
fn watch(conns: &[Conn], set: &mut idle::PollSet, config: &ServerConfig) -> Option<Instant> {
    set.clear();
    let mut deadline = None;
    for c in conns {
        set.push(c.raw_fd(), c.interest(config.recv_high_water));
        deadline = [deadline, c.write_deadline(config.write_timeout)]
            .into_iter()
            .flatten()
            .min();
    }
    deadline
}

fn worker_loop(
    worker: usize,
    rx: &Receiver<std::net::TcpStream>,
    state: &ServerState,
    repl_tx: Option<Sender<Conn>>,
) {
    let engine = Engine::new(&state.rt, state.config.mode);
    let mut conns: Vec<Conn> = Vec::new();
    let mut dispatcher_gone = false;
    let mut wctx = WorkerCtx {
        worker,
        frames_seen: 0,
        lat_sum_ns: 0,
        lat_count: 0,
    };
    idle::exact_timers();
    let mut set = idle::PollSet::default();
    let mut tick = idle::Tick::default();
    // Frames in the last pass that handled any, until an idle decision
    // has used it.
    let mut last_frames = 0u64;
    loop {
        // Adopt newly dispatched connections.
        loop {
            match rx.try_recv() {
                Ok(stream) => conns.push(Conn::new(stream, state.config.fault_plan.clone())),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    dispatcher_gone = true;
                    break;
                }
            }
        }

        let mut progressed = false;
        let mut i = 0;
        while i < conns.len() {
            match conns[i].pump(&engine, state, &mut wctx) {
                PumpOutcome::Alive { made_progress } => {
                    progressed |= made_progress;
                    // A connection that subscribed as a replication
                    // stream leaves this worker for the dedicated
                    // repl-out thread: a worker can block in
                    // `wait_replicated`, and the stream it waits on must
                    // keep pumping while it does.
                    if conns[i].is_repl_sub() {
                        if let Some(tx) = &repl_tx {
                            let c = conns.swap_remove(i);
                            match tx.send(c) {
                                Ok(()) => state.repl_out_waker().wake(),
                                // Repl thread already gone (shutdown):
                                // close the stream here.
                                Err(send_err) => {
                                    send_err.0.on_close(state);
                                    state.counters.note_close();
                                }
                            }
                            continue;
                        }
                    }
                    i += 1;
                }
                PumpOutcome::Close => {
                    let c = conns.swap_remove(i);
                    c.on_close(state);
                    state.counters.note_close();
                }
            }
        }
        if wctx.frames_seen > 0 {
            last_frames = wctx.frames_seen;
        }
        state.finish_pump(&mut wctx);

        if state.shutting_down() {
            drain_and_close(&mut conns, state);
            return;
        }
        if dispatcher_gone && conns.is_empty() {
            return;
        }
        if progressed {
            continue;
        }
        // The one idle decision: what to wait on, and for how long at
        // most. Two or more frames in one pass mean a peer that pipelines
        // (or several peers in step): the next burst is due, and taking
        // it at the next tick — one `IDLE_PASS` after the last, however
        // late that wake-up came and however long this pass took — keeps
        // the batches and the wake-ups per request where they were and
        // serves a window per period. So does a duty that runs on a
        // clock: the controller's, a seeded plan's, or a replication
        // subscriber's before the adoption loop hands it to repl-out.
        // That timed pass watches the waker alone — a dispatched
        // connection or shutdown ends it, a ready socket does not; ROADMAP
        // 2(b) puts the sockets in its set once responses park instead of
        // workers (the blind wait is what paces `serve_d32`). Otherwise —
        // a lone request, or nothing since the last decision — block
        // until a connection is ready too, for as long as no slow client
        // is due for eviction, so the next request is served when it
        // arrives.
        let block = last_frames < 2
            && !state.idle_pass_is_clocked()
            && !conns.iter().any(Conn::is_repl_sub);
        last_frames = 0;
        state.counters.note_idle(worker, block);
        let t0 = Instant::now();
        let timeout = if block {
            tick.forget();
            watch(&conns, &mut set, &state.config).map(|d| d.saturating_duration_since(t0))
        } else {
            set.clear();
            Some(tick.timeout(t0))
        };
        idle::wait(&state.wakers[worker], &mut set, timeout);
        if block {
            // The controller's averages decay per idle pass; hand it the
            // timed passes this wait stood in for, or sparse traffic
            // would read as one unbroken load.
            let passes = t0.elapsed().as_micros() / IDLE_PASS.as_micros();
            state.brownout.observe_idle(passes as u64);
        }
    }
}

/// The dedicated replication-output thread: owns every subscriber
/// connection (the workers migrate them here right after REPL_HELLO) so
/// the batch/heartbeat stream is pumped even while every worker sits
/// blocked in [`ReplFeed::wait_replicated`] — pumping subscribers from
/// the workers deadlocked every `min_acks` write whenever the writing
/// client and the subscription shared a worker.
fn repl_out_loop(rx: &Receiver<Conn>, state: &ServerState) {
    idle::exact_timers();
    // Never filled: this thread waits on its waker alone.
    let mut set = idle::PollSet::default();
    let mut tick = idle::Tick::default();
    let engine = Engine::new(&state.rt, state.config.mode);
    let mut conns: Vec<Conn> = Vec::new();
    let mut senders_gone = false;
    // Scratch only: this thread's frames must not feed the brownout
    // controller or the per-worker gauges, so `finish_pump` is never
    // called and the counters are cleared by hand each pass.
    let mut wctx = WorkerCtx {
        worker: 0,
        frames_seen: 0,
        lat_sum_ns: 0,
        lat_count: 0,
    };
    loop {
        // Adopt subscriber connections handed over by the workers.
        loop {
            match rx.try_recv() {
                Ok(c) => conns.push(c),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    senders_gone = true;
                    break;
                }
            }
        }

        let mut progressed = false;
        conns.retain_mut(|c| match c.pump(&engine, state, &mut wctx) {
            PumpOutcome::Alive { made_progress } => {
                progressed |= made_progress;
                true
            }
            PumpOutcome::Close => {
                c.on_close(state);
                state.counters.note_close();
                false
            }
        });
        wctx.frames_seen = 0;
        wctx.lat_sum_ns = 0;
        wctx.lat_count = 0;

        if state.shutting_down() {
            drain_and_close(&mut conns, state);
            return;
        }
        if senders_gone && conns.is_empty() {
            return;
        }
        if progressed {
            continue;
        }
        // A subscriber's heartbeats and feed drain are signalled by no
        // descriptor, so while there is one the passes keep the workers'
        // cadence on the waker alone; with none there is nothing to pump
        // until a worker hands one over and wakes this thread.
        let timeout = if conns.is_empty() {
            tick.forget();
            None
        } else {
            Some(tick.timeout(Instant::now()))
        };
        idle::wait(state.repl_out_waker(), &mut set, timeout);
    }
}

/// Bounded final flush: give every connection up to
/// [`ServerConfig::drain_timeout`] to drain its pending response bytes,
/// then close regardless.
fn drain_and_close(conns: &mut Vec<Conn>, state: &ServerState) {
    let deadline = Instant::now() + state.config.drain_timeout;
    while Instant::now() < deadline && conns.iter().any(Conn::has_pending_output) {
        for c in conns.iter_mut() {
            c.flush_only();
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    for c in conns.drain(..) {
        c.on_close(state);
        state.counters.note_close();
    }
}
