//! Group commit: per-shard commit pipes, one syncer thread, one fsync
//! for many sections.
//!
//! The paper's core move is amortizing synchronization cost across an
//! elided section; this module applies the same amortization to the
//! *durability* barrier. A mutating section assigns its per-shard `seq`
//! inside the critical section, then [`Wal::stage`]s the post-image into
//! its shard's commit pipe — two mutex ops and a vec push, no
//! allocation in steady state, no fsync. A dedicated **syncer thread**
//! drains every pipe, encodes the records into one buffer, appends them
//! with a single write and covers the whole batch with a single fsync.
//! Only after that barrier does it publish the per-shard durable ticket
//! watermark and wake waiters: acknowledgements are released strictly
//! after the fsync, so an acked write is always inside the fsynced
//! prefix and a torn tail can only eat unacknowledged records.
//!
//! Nothing has to block on that: [`Wal::durable_state`] and
//! [`Wal::flush_state`] answer at once, and the [`DurableTap`]'s
//! [`DurableTap::settled`] hook says when to ask again. The blocking
//! [`Wal::wait`], [`Wal::flush`] and [`Wal::begin_checkpoint`] are thin
//! loops over the same answers, for callers with a thread to spare.
//!
//! Three policies trade latency for durability:
//!
//! * **`always`** — one record per fsync. The floor group commit is
//!   measured against.
//! * **`group`** — batch until [`WalConfig::fsync_batch_size`] records
//!   or [`WalConfig::fsync_wait_us`] elapsed, whichever first.
//! * **`off`** — append asynchronously, never fsync, ack immediately.
//!   `FLUSH` and graceful shutdown still force a barrier.
//!
//! Checkpointing rotates the active segment *first*, then snapshots:
//! every record in a retired segment carries a `seq` assigned before the
//! snapshot's read section, so the checkpoint covers retired segments by
//! construction and they can be deleted after the side-file rename.

use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use gocc_telemetry::JsonWriter;

use crate::checkpoint::CheckpointImage;
use crate::file::{WalBackend, WalFile, WalIoError};
use crate::record::{encode_record, WalKind, WalRecord, RECORD_LEN};
use crate::recover::{recover, segment_path, Recovered, RecoveryStats, CKPT_FILE, CKPT_TMP};

/// When acknowledgements may be released.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Ack immediately; append asynchronously; never fsync per record.
    Off,
    /// Ack after the batched group-commit fsync.
    Group,
    /// Ack after a per-record fsync.
    Always,
}

impl SyncPolicy {
    /// Parses the `--wal-sync` flag value.
    #[must_use]
    pub fn parse(s: &str) -> Option<SyncPolicy> {
        match s {
            "off" => Some(SyncPolicy::Off),
            "group" => Some(SyncPolicy::Group),
            "always" => Some(SyncPolicy::Always),
            _ => None,
        }
    }

    /// Stable name, used in STATS and bench artifacts.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SyncPolicy::Off => "off",
            SyncPolicy::Group => "group",
            SyncPolicy::Always => "always",
        }
    }
}

/// Durability knobs.
#[derive(Clone, Debug)]
pub struct WalConfig {
    /// Ack-release policy.
    pub sync: SyncPolicy,
    /// Group mode: fsync once this many records are pending…
    pub fsync_batch_size: usize,
    /// …or once the oldest pending record has waited this long. `0`
    /// (the default) never lingers: each fsync covers whatever staged
    /// while the previous one ran — natural batching. With a bounded
    /// worker pool every in-flight writer is already blocked on the
    /// barrier once its record is staged, so lingering can never grow
    /// the batch past the pool size; it only adds latency. Raise this
    /// when arrivals are open-loop and bursty.
    pub fsync_wait_us: u64,
    /// Checkpoint when this many records accumulated since the last one
    /// (0 disables checkpointing).
    pub checkpoint_every: u64,
    /// File backend (real, simulated-crash, or aborting).
    pub backend: WalBackend,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig {
            sync: SyncPolicy::Group,
            fsync_batch_size: 64,
            fsync_wait_us: 0,
            checkpoint_every: 0,
            backend: WalBackend::Real,
        }
    }
}

/// A staged mutation: the post-image a section publishes to its pipe.
#[derive(Clone, Copy, Debug)]
pub struct Staged {
    /// Shard the mutation landed on.
    pub shard: u32,
    /// Per-shard mutation sequence number (assigned in the section).
    pub seq: u64,
    /// Mutation class.
    pub kind: WalKind,
    /// Key hash.
    pub key: u64,
    /// Post-image value.
    pub value: u64,
    /// Post-image absolute expiry (`Put` only).
    pub exp: u64,
}

/// Receipt for one staged record; redeem with [`Wal::durable_state`] or
/// [`Wal::wait`].
#[derive(Clone, Copy, Debug)]
pub struct WalTicket {
    shard: u32,
    ticket: u64,
}

impl WalTicket {
    /// The per-shard ticket number this ticket waits on (diagnostics).
    #[must_use]
    pub fn number(&self) -> u64 {
        self.ticket
    }
}

/// Receipt for one requested barrier; redeem with [`Wal::flush_state`].
#[derive(Clone, Copy, Debug)]
pub struct FlushToken(u64);

/// Where a staged record or a requested barrier stands. Never waited for:
/// [`Wal::durable_state`] and [`Wal::flush_state`] read it at once.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DurableState {
    /// Done; the LSN high-water mark then covered by a barrier.
    Durable(u64),
    /// The log died first: this will never be durable.
    Failed,
    /// Not yet. Ask again after the tap's next [`DurableTap::settled`].
    Pending,
}

/// Why a durability operation failed.
#[derive(Debug)]
pub enum WalError {
    /// A seeded crash (or I/O failure) killed the log; no further writes
    /// will be acknowledged.
    Crashed,
    /// Filesystem error outside the append path (checkpointing).
    Io(io::Error),
}

impl From<io::Error> for WalError {
    fn from(e: io::Error) -> Self {
        WalError::Io(e)
    }
}

/// Observer of the WAL's durable prefix. The syncer invokes
/// [`DurableTap::publish`] once per shard per pass, strictly **after**
/// the pass's durability barrier (under `off`, after the append — the
/// ack there makes no durability promise either), so everything a tap
/// sees is exactly what an acknowledgement may promise. Records within
/// one call are in pipe order, which is *not* necessarily `seq` order —
/// staging happens outside the critical section — so consumers that
/// need commit order (the replication feed) reorder by `Staged::seq`.
pub trait DurableTap: Send + Sync {
    /// A batch of shard `shard`'s records just became part of the
    /// durable prefix.
    fn publish(&self, shard: u32, records: &[Staged]);

    /// A [`DurableState`] may have moved: called after every pass that
    /// advanced a durable watermark (under `always`, after every record's
    /// fsync) or finished a flush or a rotation, and once the log is found
    /// dead. What was `Pending` before this call may not be any more;
    /// nothing moves without one.
    fn settled(&self, _wal: &Wal) {}
}

/// Locks a mutex, recovering the guard from a poisoned lock. A panicking
/// peer must degrade the WAL (the crashed flag handles that), never
/// cascade panics into worker or syncer threads.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Records of retained capacity each pipe (and its syncer-side swap
/// partner) starts with. Staging stays allocation-free as long as the
/// per-shard backlog between fsync passes fits; beyond that the Vec
/// grows (amortized) and keeps the larger capacity forever.
const PIPE_RESERVE: usize = 1024;

#[derive(Debug)]
struct PipeInner {
    records: Vec<Staged>,
    /// Tickets issued (count of records ever staged on this shard).
    staged: u64,
}

impl PipeInner {
    fn new() -> Self {
        PipeInner {
            records: Vec::with_capacity(PIPE_RESERVE),
            staged: 0,
        }
    }
}

#[derive(Debug, Default)]
struct WalCounters {
    /// Next LSN to assign; also the count of records ever appended
    /// (offset by the recovered high-water mark).
    next_lsn: AtomicU64,
    /// Records appended in this process lifetime.
    appended: AtomicU64,
    bytes: AtomicU64,
    fsyncs: AtomicU64,
    /// `WalFile::append` calls: one `write(2)` each on a real file.
    writes: AtomicU64,
    /// Times the syncer slept and woke again: parked idle, lingering for
    /// a fuller group, or pacing itself under `off`.
    syncer_wakeups: AtomicU64,
    /// Group-commit batches written (one append each).
    batches: AtomicU64,
    flushes: AtomicU64,
    rotations: AtomicU64,
    checkpoints: AtomicU64,
    checkpoint_entries: AtomicU64,
    since_checkpoint: AtomicU64,
    /// LSN high-water mark covered by an fsync.
    durable_lsn: AtomicU64,
}

/// The write-ahead log: pipes in, one syncer thread out.
pub struct Wal {
    cfg: WalConfig,
    dir: PathBuf,
    pipes: Vec<Mutex<PipeInner>>,
    /// Per-shard ticket watermark that is durable (ack-releasable).
    durable: Vec<AtomicU64>,
    ack_mu: Mutex<()>,
    ack_cv: Condvar,
    wake_mu: Mutex<bool>,
    wake_cv: Condvar,
    /// True only while the syncer is (about to be) parked on `wake_cv`.
    /// `stage` skips the wake-mutex/notify entirely while the syncer is
    /// busy — the drain loop will pick the record up anyway — which
    /// keeps the staging hot path to one shard-local mutex op.
    syncer_idle: AtomicBool,
    crashed: AtomicBool,
    shutdown_flag: AtomicBool,
    flush_req: AtomicU64,
    flush_done: AtomicU64,
    rotate_req: AtomicU64,
    rotate_done: AtomicU64,
    /// Segment generations on disk, ascending; last is active.
    segments: Mutex<Vec<u64>>,
    /// Checkpoint attempt counter (fault-schedule key).
    ckpt_idx: AtomicU64,
    syncer: Mutex<Option<thread::JoinHandle<()>>>,
    /// Durable-prefix observer (the replication feed). Bumping `tap_gen`
    /// tells the syncer to re-read the slot, so the steady-state pass
    /// pays one relaxed load, not a lock.
    tap: Mutex<Option<Arc<dyn DurableTap>>>,
    tap_gen: AtomicU64,
    counters: WalCounters,
    recovery: RecoveryStats,
}

impl Wal {
    /// Recovers `dir`, opens a fresh active segment, starts the syncer.
    ///
    /// Returns the log plus the recovered per-shard images the caller
    /// must load into its store *before* staging anything.
    pub fn open(
        dir: impl Into<PathBuf>,
        shards: usize,
        cfg: WalConfig,
    ) -> io::Result<(Arc<Wal>, Recovered)> {
        let dir = dir.into();
        let recovered = recover(&dir, shards)?;
        let active_gen = recovered.gens.last().copied().unwrap_or(0) + 1;
        let file = cfg.backend.open(&segment_path(&dir, active_gen))?;
        let mut gens = recovered.gens.clone();
        gens.push(active_gen);
        let counters = WalCounters::default();
        let lsn_base = if recovered.stats.replayed + recovered.stats.skipped > 0 {
            recovered.stats.max_lsn + 1
        } else {
            0
        };
        counters.next_lsn.store(lsn_base, Ordering::Relaxed);
        counters.durable_lsn.store(lsn_base, Ordering::Relaxed);
        let wal = Arc::new(Wal {
            cfg,
            dir,
            pipes: (0..shards).map(|_| Mutex::new(PipeInner::new())).collect(),
            durable: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            ack_mu: Mutex::new(()),
            ack_cv: Condvar::new(),
            wake_mu: Mutex::new(false),
            wake_cv: Condvar::new(),
            syncer_idle: AtomicBool::new(false),
            crashed: AtomicBool::new(false),
            shutdown_flag: AtomicBool::new(false),
            flush_req: AtomicU64::new(0),
            flush_done: AtomicU64::new(0),
            rotate_req: AtomicU64::new(0),
            rotate_done: AtomicU64::new(0),
            segments: Mutex::new(gens),
            ckpt_idx: AtomicU64::new(0),
            syncer: Mutex::new(None),
            tap: Mutex::new(None),
            tap_gen: AtomicU64::new(0),
            counters,
            recovery: recovered.stats,
        });
        let handle = {
            let w = Arc::clone(&wal);
            thread::Builder::new()
                .name("wal-syncer".into())
                .spawn(move || syncer_loop(&w, file))?
        };
        *lock_unpoisoned(&wal.syncer) = Some(handle);
        Ok((wal, recovered))
    }

    /// Installs (or replaces) the durable-prefix tap. The syncer picks
    /// the change up on its next pass; records already past their
    /// barrier when the tap lands are not replayed — a consumer that
    /// needs history resyncs from a snapshot, same as after a gap.
    pub fn set_tap(&self, tap: Arc<dyn DurableTap>) {
        *lock_unpoisoned(&self.tap) = Some(tap);
        self.tap_gen.fetch_add(1, Ordering::Release);
    }

    /// What recovery observed at open.
    #[must_use]
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.recovery
    }

    /// True once a seeded crash or I/O failure poisoned the log.
    #[must_use]
    pub fn is_crashed(&self) -> bool {
        self.crashed.load(Ordering::Acquire)
    }

    /// Stages one post-image on its shard's commit pipe.
    ///
    /// Steady-state cost: one shard-local mutex, one vec push (into
    /// retained capacity), one wake. No allocation, no I/O.
    pub fn stage(&self, rec: Staged) -> WalTicket {
        let shard = rec.shard;
        let ticket = {
            let mut p = lock_unpoisoned(&self.pipes[shard as usize]);
            p.records.push(rec);
            p.staged += 1;
            p.staged
        };
        // Wake only a parked syncer. The SeqCst pairing with the idle
        // transition makes this race-free: if this load reads `false`,
        // the push above is ordered before the syncer's post-publish
        // re-drain, which therefore sees the record (see `syncer_loop`).
        if self.syncer_idle.load(Ordering::SeqCst) {
            self.wake();
        }
        WalTicket { shard, ticket }
    }

    /// Whether the ticket's record is durable per the policy. Never
    /// blocks. Under `off` it is at once: the ack deliberately makes no
    /// durability promise. Under `group`/`always` once the record is
    /// inside an fsynced prefix — the caller may then, and only then,
    /// release the acknowledgement.
    #[must_use]
    pub fn durable_state(&self, t: WalTicket) -> DurableState {
        if self.crashed.load(Ordering::Acquire) {
            DurableState::Failed
        } else if self.cfg.sync == SyncPolicy::Off
            || self.durable[t.shard as usize].load(Ordering::Acquire) >= t.ticket
        {
            DurableState::Durable(self.durable_lsn())
        } else {
            DurableState::Pending
        }
    }

    /// Asks for a durability barrier over everything staged before the
    /// call, regardless of policy: the FLUSH verb. Never blocks.
    pub fn request_flush(&self) -> FlushToken {
        let token = self.flush_req.fetch_add(1, Ordering::SeqCst) + 1;
        self.wake();
        FlushToken(token)
    }

    /// Whether the barrier `token` asked for is done, and the durable LSN
    /// high-water mark it left. Never blocks.
    #[must_use]
    pub fn flush_state(&self, token: FlushToken) -> DurableState {
        self.done_state(&self.flush_done, token.0)
    }

    fn done_state(&self, done: &AtomicU64, token: u64) -> DurableState {
        if done.load(Ordering::SeqCst) >= token {
            DurableState::Durable(self.durable_lsn())
        } else if self.crashed.load(Ordering::Acquire) {
            DurableState::Failed
        } else {
            DurableState::Pending
        }
    }

    /// Blocks until `state` is not `Pending` any more and returns the
    /// durable LSN, for callers with a thread to spare. The syncer
    /// notifies after every pass; a lost wake-up costs 2 ms, never a hang.
    fn block_on(&self, state: impl Fn() -> DurableState) -> Result<u64, WalError> {
        let mut guard = lock_unpoisoned(&self.ack_mu);
        loop {
            match state() {
                DurableState::Durable(lsn) => return Ok(lsn),
                DurableState::Failed => return Err(WalError::Crashed),
                DurableState::Pending => {}
            }
            guard = self
                .ack_cv
                .wait_timeout(guard, Duration::from_millis(2))
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }

    /// Blocks until [`Wal::durable_state`] is final.
    pub fn wait(&self, t: WalTicket) -> Result<(), WalError> {
        self.block_on(|| self.durable_state(t)).map(drop)
    }

    /// [`Wal::request_flush`], then blocks until the barrier is done.
    /// Returns the durable LSN high-water mark.
    pub fn flush(&self) -> Result<u64, WalError> {
        let token = self.request_flush();
        self.block_on(|| self.flush_state(token))
    }

    /// True when enough records accumulated to warrant a checkpoint.
    #[must_use]
    pub fn should_checkpoint(&self) -> bool {
        self.cfg.checkpoint_every > 0
            && !self.is_crashed()
            && self.counters.since_checkpoint.load(Ordering::Relaxed) >= self.cfg.checkpoint_every
    }

    /// Phase one of a checkpoint: rotate the active segment.
    ///
    /// On return every future append lands in a new segment, so any
    /// snapshot taken *after* this call covers all retired segments
    /// (their records' `seq`s were assigned before the snapshot's read
    /// sections). Returns `(base_gen, retired)`: the generation the
    /// checkpoint truncates to, and the segments it may delete.
    pub fn begin_checkpoint(&self) -> Result<(u64, Vec<u64>), WalError> {
        let token = self.rotate_req.fetch_add(1, Ordering::SeqCst) + 1;
        self.wake();
        self.block_on(|| self.done_state(&self.rotate_done, token))?;
        let segs = lock_unpoisoned(&self.segments);
        let Some(&active) = segs.last() else {
            // An empty segment list means the syncer died mid-rotation;
            // degrade instead of panicking in the checkpointer thread.
            drop(segs);
            return Err(self.poison());
        };
        let retired = segs[..segs.len() - 1].to_vec();
        Ok((active, retired))
    }

    /// Phase two: persist the snapshot and truncate the log.
    ///
    /// `image.base_gen` must be the value [`Wal::begin_checkpoint`]
    /// returned, and the snapshot must have been taken after that call.
    /// The sequence — write `checkpoint.tmp`, fsync, rename, fsync the
    /// directory, delete retired segments — is crash-safe at every step:
    /// before the rename the old checkpoint (or none) still rules;
    /// after it, leftover retired segments are covered and deleted on
    /// the next boot.
    pub fn finish_checkpoint(
        &self,
        image: &CheckpointImage,
        retired: &[u64],
    ) -> Result<(), WalError> {
        let ckpt = self.ckpt_idx.fetch_add(1, Ordering::SeqCst);
        let mut buf = Vec::new();
        crate::checkpoint::encode_checkpoint(image, &mut buf);
        let tmp = self.dir.join(CKPT_TMP);
        let live = self.dir.join(CKPT_FILE);

        // Phase 0: die mid-write, leaving a torn tmp.
        if self.ckpt_fault(ckpt, 0) {
            let _ = std::fs::write(&tmp, &buf[..buf.len() / 2]);
            return Err(self.poison());
        }
        {
            use std::io::Write;
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(&buf)?;
            f.sync_data()?;
        }
        // Phase 1: die with a complete tmp that never committed.
        if self.ckpt_fault(ckpt, 1) {
            return Err(self.poison());
        }
        std::fs::rename(&tmp, &live)?;
        if let Ok(d) = std::fs::File::open(&self.dir) {
            let _ = d.sync_all();
        }
        // Phases 2..: die mid-truncation, leaving covered segments behind.
        for (i, &gen) in retired.iter().enumerate() {
            if self.ckpt_fault(ckpt, 2 + i as u64) {
                return Err(self.poison());
            }
            let _ = std::fs::remove_file(segment_path(&self.dir, gen));
        }
        lock_unpoisoned(&self.segments).retain(|&g| g >= image.base_gen);
        self.counters.checkpoints.fetch_add(1, Ordering::Relaxed);
        self.counters
            .checkpoint_entries
            .store(image.entry_count(), Ordering::Relaxed);
        self.counters.since_checkpoint.store(0, Ordering::Relaxed);
        Ok(())
    }

    fn ckpt_fault(&self, ckpt: u64, phase: u64) -> bool {
        match &self.cfg.backend {
            WalBackend::Real => false,
            WalBackend::Sim(plan) => plan.ckpt_crash(ckpt, phase),
            WalBackend::Abort(plan) => {
                if plan.ckpt_crash(ckpt, phase) {
                    // Die the way SIGKILL would, mid-sequence.
                    std::process::abort();
                }
                false
            }
        }
    }

    /// Final barrier and syncer join. Graceful: everything staged is
    /// appended and (policy permitting) persisted before return.
    pub fn shutdown(&self) {
        self.shutdown_flag.store(true, Ordering::SeqCst);
        self.wake();
        let handle = lock_unpoisoned(&self.syncer).take();
        if let Some(h) = handle {
            let _ = h.join();
        }
    }

    fn wake(&self) {
        let mut w = lock_unpoisoned(&self.wake_mu);
        *w = true;
        drop(w);
        self.wake_cv.notify_one();
    }

    fn poison(&self) -> WalError {
        self.crashed.store(true, Ordering::Release);
        self.ack_cv.notify_all();
        let tap = lock_unpoisoned(&self.tap).clone();
        if let Some(t) = tap {
            t.settled(self);
        }
        WalError::Crashed
    }

    /// Records appended in this process lifetime.
    #[must_use]
    pub fn appended(&self) -> u64 {
        self.counters.appended.load(Ordering::Relaxed)
    }

    /// Fsyncs issued in this process lifetime.
    #[must_use]
    pub fn fsyncs(&self) -> u64 {
        self.counters.fsyncs.load(Ordering::Relaxed)
    }

    /// `write(2)` calls the syncer made (appends to the active segment).
    #[must_use]
    pub fn writes(&self) -> u64 {
        self.counters.writes.load(Ordering::Relaxed)
    }

    /// Times the syncer thread slept and woke again: parked with every
    /// pipe empty, lingering for a fuller group, or pacing itself under
    /// `off`.
    #[must_use]
    pub fn syncer_wakeups(&self) -> u64 {
        self.counters.syncer_wakeups.load(Ordering::Relaxed)
    }

    /// LSN high-water mark covered by a durability barrier.
    #[must_use]
    pub fn durable_lsn(&self) -> u64 {
        self.counters.durable_lsn.load(Ordering::Relaxed)
    }

    /// Checkpoints completed.
    #[must_use]
    pub fn checkpoints(&self) -> u64 {
        self.counters.checkpoints.load(Ordering::Relaxed)
    }

    /// The STATS `"wal"` object.
    #[must_use]
    pub fn stats_json(&self) -> String {
        let c = &self.counters;
        let appended = c.appended.load(Ordering::Relaxed);
        let fsyncs = c.fsyncs.load(Ordering::Relaxed);
        let mut w = JsonWriter::new();
        w.begin_object()
            .field_bool("enabled", true)
            .field_str("sync", self.cfg.sync.name())
            .field_bool("crashed", self.is_crashed())
            .field_u64("records", appended)
            .field_u64("bytes", c.bytes.load(Ordering::Relaxed))
            .field_u64("fsyncs", fsyncs)
            .field_f64(
                "records_per_fsync",
                if fsyncs == 0 {
                    0.0
                } else {
                    appended as f64 / fsyncs as f64
                },
            )
            .field_u64("writes", c.writes.load(Ordering::Relaxed))
            .field_u64("syncer_wakeups", c.syncer_wakeups.load(Ordering::Relaxed))
            .field_u64("batches", c.batches.load(Ordering::Relaxed))
            .field_u64("flushes", c.flushes.load(Ordering::Relaxed))
            .field_u64("durable_lsn", c.durable_lsn.load(Ordering::Relaxed))
            .field_u64("rotations", c.rotations.load(Ordering::Relaxed))
            .field_u64("checkpoints", c.checkpoints.load(Ordering::Relaxed))
            .field_u64(
                "checkpoint_entries",
                c.checkpoint_entries.load(Ordering::Relaxed),
            )
            .field_u64(
                "since_checkpoint",
                c.since_checkpoint.load(Ordering::Relaxed),
            );
        w.key("recovery").begin_object();
        w.field_bool("checkpoint_loaded", self.recovery.checkpoint_loaded)
            .field_u64("checkpoint_entries", self.recovery.checkpoint_entries)
            .field_u64("recovery_replayed", self.recovery.replayed)
            .field_u64("recovery_skipped", self.recovery.skipped)
            .field_u64("truncated_bytes", self.recovery.truncated_bytes)
            .field_u64("segments", self.recovery.segments);
        w.end_object().end_object();
        w.finish()
    }
}

/// The syncer thread: drain pipes → encode → append → fsync → publish.
fn syncer_loop(wal: &Wal, mut file: Box<dyn WalFile>) {
    let shards = wal.pipes.len();
    let mut scratch: Vec<Vec<Staged>> = (0..shards)
        .map(|_| Vec::with_capacity(PIPE_RESERVE))
        .collect();
    let mut drained_to: Vec<u64> = vec![0; shards];
    let mut encode_buf: Vec<u8> = Vec::with_capacity(256 * RECORD_LEN);
    let mut flush_handled = 0u64;
    let mut rotate_handled = 0u64;
    // Bytes appended to the active segment; the barrier target.
    let mut file_bytes = 0u64;
    // Durable-prefix tap, cached; re-read only when the generation bumps.
    let mut tap: Option<Arc<dyn DurableTap>> = None;
    let mut tap_seen = 0u64;

    // A short fsync reports success without covering everything the
    // syncer appended, so a single `sync` call is not a barrier — this
    // loop is. It retries until the durable watermark reaches `target`;
    // a barrier that cannot make progress is a dead disk.
    fn barrier(wal: &Wal, file: &mut Box<dyn WalFile>, target: u64) -> Result<(), WalIoError> {
        for _ in 0..64 {
            let idx = wal.counters.fsyncs.fetch_add(1, Ordering::Relaxed);
            if file.sync(idx)? >= target {
                return Ok(());
            }
        }
        Err(WalIoError::Crashed)
    }

    let result = (|| -> Result<(), WalIoError> {
        loop {
            // Read control targets BEFORE draining: anything staged before
            // a flush/rotate/shutdown request is then guaranteed drained
            // in the pass that services it.
            let flush_target = wal.flush_req.load(Ordering::SeqCst);
            let rotate_target = wal.rotate_req.load(Ordering::SeqCst);
            let shutting = wal.shutdown_flag.load(Ordering::SeqCst);

            let mut total = drain(wal, &mut scratch, &mut drained_to);
            let want_flush = flush_target > flush_handled;
            let want_rotate = rotate_target > rotate_handled;

            if total == 0 && !want_flush && !want_rotate && !shutting {
                // Publish idleness, then drain once more before parking:
                // a `stage` that read the flag as `false` (and so skipped
                // its wake) pushed before that read, and the SeqCst order
                // push → load(false) → store(true) → re-drain guarantees
                // this pass sees its record. A stage that reads `true`
                // notifies through `wake_mu`. Either way no record waits
                // on the 500us timeout backstop.
                wal.syncer_idle.store(true, Ordering::SeqCst);
                total = drain(wal, &mut scratch, &mut drained_to);
                if total == 0 {
                    let guard = lock_unpoisoned(&wal.wake_mu);
                    let mut guard = if *guard {
                        guard
                    } else {
                        wal.counters.syncer_wakeups.fetch_add(1, Ordering::Relaxed);
                        wal.wake_cv
                            .wait_timeout(guard, Duration::from_micros(500))
                            .unwrap_or_else(PoisonError::into_inner)
                            .0
                    };
                    *guard = false;
                    wal.syncer_idle.store(false, Ordering::SeqCst);
                    continue;
                }
                wal.syncer_idle.store(false, Ordering::SeqCst);
            }

            // Group mode: linger for a fuller batch, but never while a
            // flush, rotation or shutdown is waiting on us.
            if wal.cfg.sync == SyncPolicy::Group
                && total > 0
                && total < wal.cfg.fsync_batch_size
                && !want_flush
                && !want_rotate
                && !shutting
            {
                let deadline = Instant::now() + Duration::from_micros(wal.cfg.fsync_wait_us);
                while total < wal.cfg.fsync_batch_size {
                    let now = Instant::now();
                    if now >= deadline
                        || wal.flush_req.load(Ordering::SeqCst) > flush_handled
                        || wal.shutdown_flag.load(Ordering::SeqCst)
                    {
                        break;
                    }
                    let wait = (deadline - now).min(Duration::from_micros(50));
                    wal.counters.syncer_wakeups.fetch_add(1, Ordering::Relaxed);
                    let guard = lock_unpoisoned(&wal.wake_mu);
                    let mut guard = wal
                        .wake_cv
                        .wait_timeout(guard, wait)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0;
                    *guard = false;
                    drop(guard);
                    total = drain(wal, &mut scratch, &mut drained_to);
                }
            }

            let gen = wal.tap_gen.load(Ordering::Acquire);
            if gen != tap_seen {
                tap = lock_unpoisoned(&wal.tap).clone();
                tap_seen = gen;
            }
            if total > 0 {
                match wal.cfg.sync {
                    SyncPolicy::Always => {
                        // One record, one append, one fsync, one ack.
                        for s in 0..shards {
                            for i in 0..scratch[s].len() {
                                let rec = scratch[s][i];
                                encode_buf.clear();
                                let lsn = wal.counters.next_lsn.fetch_add(1, Ordering::Relaxed);
                                encode_record(&to_record(&rec, lsn), &mut encode_buf);
                                wal.counters.writes.fetch_add(1, Ordering::Relaxed);
                                file.append(lsn, &encode_buf)?;
                                file_bytes += encode_buf.len() as u64;
                                barrier(wal, &mut file, file_bytes)?;
                                wal.counters.durable_lsn.store(lsn + 1, Ordering::Relaxed);
                                note_appended(wal, 1);
                                wal.durable[s].fetch_add(1, Ordering::Release);
                                wal.ack_cv.notify_all();
                                if let Some(t) = &tap {
                                    t.settled(wal);
                                }
                            }
                        }
                    }
                    SyncPolicy::Group | SyncPolicy::Off => {
                        encode_buf.clear();
                        let first_lsn = wal
                            .counters
                            .next_lsn
                            .fetch_add(total as u64, Ordering::Relaxed);
                        let mut lsn = first_lsn;
                        for recs in &scratch {
                            for rec in recs {
                                encode_record(&to_record(rec, lsn), &mut encode_buf);
                                lsn += 1;
                            }
                        }
                        wal.counters.writes.fetch_add(1, Ordering::Relaxed);
                        file.append(first_lsn, &encode_buf)?;
                        file_bytes += encode_buf.len() as u64;
                        wal.counters.batches.fetch_add(1, Ordering::Relaxed);
                        note_appended(wal, total as u64);
                        if wal.cfg.sync == SyncPolicy::Group {
                            barrier(wal, &mut file, file_bytes)?;
                            wal.counters.durable_lsn.store(lsn, Ordering::Relaxed);
                        }
                        for s in 0..shards {
                            wal.durable[s].fetch_max(drained_to[s], Ordering::Release);
                        }
                        wal.ack_cv.notify_all();
                    }
                }
                // The pass's records are now inside the durable prefix
                // (or, under `off`, appended): hand them to the tap
                // before the scratch is recycled.
                if let Some(t) = &tap {
                    for (s, recs) in scratch.iter().enumerate() {
                        if !recs.is_empty() {
                            t.publish(s as u32, recs);
                        }
                    }
                }
                for recs in &mut scratch {
                    recs.clear();
                }
            }

            if want_flush {
                // Group/Always already synced everything they appended;
                // Off (and an empty pass) still owes the barrier.
                if wal.cfg.sync == SyncPolicy::Off || total == 0 {
                    barrier(wal, &mut file, file_bytes)?;
                }
                wal.counters.durable_lsn.store(
                    wal.counters.next_lsn.load(Ordering::Relaxed),
                    Ordering::Relaxed,
                );
                wal.counters.flushes.fetch_add(1, Ordering::Relaxed);
                flush_handled = flush_target;
                wal.flush_done.store(flush_target, Ordering::SeqCst);
                wal.ack_cv.notify_all();
            }

            if want_rotate {
                file.close()?;
                let next_gen = {
                    let segs = lock_unpoisoned(&wal.segments);
                    // A missing active segment is unrecoverable state;
                    // degrade to Crashed rather than panic the syncer.
                    match segs.last() {
                        Some(&g) => g + 1,
                        None => return Err(WalIoError::Crashed),
                    }
                };
                file = wal
                    .cfg
                    .backend
                    .open(&segment_path(&wal.dir, next_gen))
                    .map_err(WalIoError::Io)?;
                lock_unpoisoned(&wal.segments).push(next_gen);
                file_bytes = 0;
                wal.counters.rotations.fetch_add(1, Ordering::Relaxed);
                rotate_handled = rotate_target;
                wal.rotate_done.store(rotate_target, Ordering::SeqCst);
                wal.ack_cv.notify_all();
            }

            if let Some(t) = tap
                .as_ref()
                .filter(|_| total > 0 || want_flush || want_rotate)
            {
                t.settled(wal);
            }

            if shutting {
                file.close()?;
                return Ok(());
            }

            // `off` paces itself: no ack ever waits on this thread, so
            // spinning the drain loop only fights stagers for the pipe
            // mutexes. A short sleep lets records accumulate (well under
            // PIPE_RESERVE at any realistic rate) and turns the next
            // pass into one big append. Group/Always are paced by the
            // fsync itself. FLUSH pays at most this much extra latency.
            if wal.cfg.sync == SyncPolicy::Off && total > 0 {
                wal.counters.syncer_wakeups.fetch_add(1, Ordering::Relaxed);
                thread::sleep(Duration::from_micros(50));
            }
        }
    })();

    if result.is_err() {
        let _ = wal.poison();
    }
    // Wake anyone still parked, success or crash.
    wal.ack_cv.notify_all();
}

fn drain(wal: &Wal, scratch: &mut [Vec<Staged>], drained_to: &mut [u64]) -> usize {
    let mut total = 0;
    for (s, slot) in scratch.iter_mut().enumerate() {
        let mut p = lock_unpoisoned(&wal.pipes[s]);
        if !p.records.is_empty() {
            if slot.is_empty() {
                // Swap the empty scratch in; the pipe keeps its capacity.
                std::mem::swap(&mut p.records, slot);
            } else {
                slot.append(&mut p.records);
            }
        }
        drained_to[s] = p.staged;
        total += slot.len();
    }
    total
}

fn to_record(rec: &Staged, lsn: u64) -> WalRecord {
    WalRecord {
        shard: rec.shard,
        seq: rec.seq,
        lsn,
        kind: rec.kind,
        key: rec.key,
        value: rec.value,
        exp: rec.exp,
    }
}

fn note_appended(wal: &Wal, n: u64) {
    wal.counters.appended.fetch_add(n, Ordering::Relaxed);
    wal.counters
        .bytes
        .fetch_add(n * RECORD_LEN as u64, Ordering::Relaxed);
    wal.counters
        .since_checkpoint
        .fetch_add(n, Ordering::Relaxed);
}
