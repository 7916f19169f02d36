//! Primary/replica replication, built on the paper's own mechanism: a
//! replica applies a batch only if `batch.prev_version` matches its
//! shard's version — the same optimistic check a GOCC section validates
//! with — and a mismatch is a `ConcurrencyConflict`-style NAK that
//! triggers resynchronization instead of a blind overwrite.
//!
//! # Pieces
//!
//! * [`ReplFeed`] — the primary-side hub. The server's WAL tap hands it
//!   every record the instant the record enters the durable prefix
//!   ([`ReplFeed::publish`]). Records arrive in
//!   pipe order (staging happens outside the critical section); a
//!   per-shard reorder buffer releases them in `seq` order, and each
//!   subscribed replica connection gets a bounded per-shard queue of the
//!   released stream. A queue that overflows (slow replica) is dropped
//!   and the shard flagged for snapshot resync — replication may never
//!   stall the syncer or grow without bound.
//! * **Acks, leases and fencing** — every `REPL_ACK` updates the
//!   subscriber's per-shard watermark and its lease. With
//!   `min_acks > 0`, a primary write is only releasable once
//!   [`ReplFeed::ack_state`] sees `min_acks` subscribers at or past the
//!   write's version; and once fewer than `min_acks` subscribers have
//!   acked within the lease window the primary is **fenced**: writes fail
//!   fast instead of acking into a partition. That is the split-brain
//!   guard — a partitioned old primary stops acknowledging on its own
//!   clock, before the other side promotes. The check never blocks: the
//!   server parks the write's response and asks again, so no thread
//!   waits on a replica.
//! * [`SnapshotAssembler`] — replica-side accumulator for chunked
//!   `REPL_BATCH` frames carrying `SNAP` flags; the assembled image is
//!   applied atomically at `FIN`.
//! * [`resync_backoff`] — bounded, seeded backoff for replica reconnect
//!   and resync loops, deterministic per (seed, stream, attempt).
//!
//! # Role
//!
//! [`Role`] is a node's place in the cluster — primary or replica, the
//! epoch it has seen and the one it last voted in, its upstream and its
//! electorate — and every election rule over them, with no lock, socket,
//! thread or clock. Store versions come in as arguments. The server
//! holds one behind one lock and does the I/O around it.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use gocc_telemetry::{JsonWriter, SplitMix64};
use gocc_wal::{Staged, WalKind};
use gocc_wire::{ReplRecord, REPL_FLAG_FIN, REPL_FLAG_RESET, REPL_KIND_DEL};

mod role;
pub use role::{suspect_jitter, Admit, Role};

/// Replication tuning for one primary.
#[derive(Clone, Debug)]
pub struct ReplConfig {
    /// Store shard count; versions, queues and acks are all per shard.
    pub shards: usize,
    /// Subscribers that must ack a write before it is releasable, and
    /// that must stay inside the lease for the primary to keep acking.
    /// `0` = asynchronous replication (no gating, no fencing).
    pub min_acks: usize,
    /// Lease window: a subscriber counts as live while its last ack is
    /// younger than this; with fewer than `min_acks` live subscribers
    /// the primary is fenced.
    pub lease: Duration,
    /// Per-subscriber cap on queued records (across shards). Overflow
    /// drops the slow shard's queue and flags it for snapshot resync.
    pub max_queue: usize,
}

impl Default for ReplConfig {
    fn default() -> Self {
        ReplConfig {
            shards: 1,
            min_acks: 0,
            lease: Duration::from_millis(500),
            max_queue: 64 * 1024,
        }
    }
}

/// Where one write stands against `min_acks`, as [`ReplFeed::ack_state`]
/// finds it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AckState {
    /// `min_acks` subscribers acked the write's version (always, with
    /// `min_acks == 0`).
    Acked,
    /// Fewer than `min_acks` subscribers inside the lease: the primary
    /// is fenced and must not acknowledge.
    Fenced,
    /// Enough subscribers are live, but not enough have acked yet. The
    /// caller asks again later, and decides itself when to stop.
    Pending,
}

/// One drained batch, ready to encode as a `REPL_BATCH` frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OutBatch {
    /// Shard the records belong to.
    pub shard: u32,
    /// Version check: the replica applies only if its shard is here.
    pub prev_version: u64,
    /// Records, in commit (`seq`) order; moves the shard
    /// `prev_version → prev_version + records.len()`.
    pub records: Vec<ReplRecord>,
}

/// Where a subscriber's shard stream stands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// Queue is live and drainable.
    Streaming,
    /// Gap detected (overflow or NAK); awaiting a snapshot resync.
    Needed,
    /// Resync armed: records queue again behind the in-flight snapshot
    /// but must not be drained until the cut.
    Armed,
}

struct SubShard {
    /// Released records not yet drained, with their seqs (contiguous).
    queue: VecDeque<(u64, ReplRecord)>,
    /// Stream version before the first queued record — equivalently, the
    /// version the replica reaches once everything drained so far is
    /// applied. Heartbeats carry this.
    base: u64,
    /// Highest version this subscriber acked.
    acked: u64,
    /// Records with `seq <=` this are covered by a sent snapshot and
    /// skipped on release.
    skip_until: u64,
    phase: Phase,
}

struct SubState {
    shards: Vec<SubShard>,
    last_ack: Instant,
    queued_total: usize,
}

struct ShardState {
    /// Durable, contiguously released version.
    version: u64,
    /// Out-of-order arrivals waiting for the gap to fill: `seq → record`.
    pending: BTreeMap<u64, ReplRecord>,
}

struct FeedInner {
    shards: Vec<ShardState>,
    subs: Vec<Option<SubState>>,
}

/// Lock-free replication counters for STATS.
#[derive(Debug, Default)]
pub struct ReplCounters {
    batches_sent: AtomicU64,
    records_sent: AtomicU64,
    acks: AtomicU64,
    naks: AtomicU64,
    resyncs: AtomicU64,
    overflows: AtomicU64,
    fenced_rejects: AtomicU64,
}

impl ReplCounters {
    /// Batches handed to connections for encoding.
    #[must_use]
    pub fn batches_sent(&self) -> u64 {
        self.batches_sent.load(Ordering::Relaxed)
    }

    /// Records across those batches.
    #[must_use]
    pub fn records_sent(&self) -> u64 {
        self.records_sent.load(Ordering::Relaxed)
    }

    /// Positive acknowledgements received.
    #[must_use]
    pub fn acks(&self) -> u64 {
        self.acks.load(Ordering::Relaxed)
    }

    /// Version-mismatch NAKs received.
    #[must_use]
    pub fn naks(&self) -> u64 {
        self.naks.load(Ordering::Relaxed)
    }

    /// Snapshot resyncs completed (cut accepted).
    #[must_use]
    pub fn resyncs(&self) -> u64 {
        self.resyncs.load(Ordering::Relaxed)
    }

    /// Queues dropped for overflow (each forces a resync).
    #[must_use]
    pub fn overflows(&self) -> u64 {
        self.overflows.load(Ordering::Relaxed)
    }

    /// Writes rejected because the primary was fenced.
    #[must_use]
    pub fn fenced_rejects(&self) -> u64 {
        self.fenced_rejects.load(Ordering::Relaxed)
    }

    /// Counts a write rejected by a fencing check done *outside*
    /// [`ReplFeed::ack_state`] (the server's cheap pre-check).
    pub fn note_fenced_reject(&self) {
        self.fenced_rejects.fetch_add(1, Ordering::Relaxed);
    }
}

fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The primary-side replication hub. See the module docs for the model.
pub struct ReplFeed {
    cfg: ReplConfig,
    inner: Mutex<FeedInner>,
    counters: ReplCounters,
    /// The verdict of the latest lease check, for STATS: the feed reads
    /// no clock, so it reports what the last write's check found.
    last_fenced: AtomicBool,
}

/// Subscriber handle: an index into the feed's slot table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SubId(usize);

impl ReplFeed {
    /// A feed whose per-shard versions start at `initial_versions` — the
    /// primary's recovered cache seqs, so a replica that is exactly
    /// caught up subscribes without a resync.
    #[must_use]
    pub fn new(cfg: ReplConfig, initial_versions: &[u64]) -> Self {
        assert_eq!(cfg.shards, initial_versions.len(), "one version per shard");
        let shards = initial_versions
            .iter()
            .map(|&v| ShardState {
                version: v,
                pending: BTreeMap::new(),
            })
            .collect();
        ReplFeed {
            last_fenced: AtomicBool::new(cfg.min_acks > 0),
            cfg,
            inner: Mutex::new(FeedInner {
                shards,
                subs: Vec::new(),
            }),
            counters: ReplCounters::default(),
        }
    }

    /// The configured replication knobs.
    #[must_use]
    pub fn config(&self) -> &ReplConfig {
        &self.cfg
    }

    /// The counters STATS reports.
    #[must_use]
    pub fn counters(&self) -> &ReplCounters {
        &self.counters
    }

    /// Current released (durable, contiguous) version per shard.
    #[must_use]
    pub fn versions(&self) -> Vec<u64> {
        lock_unpoisoned(&self.inner)
            .shards
            .iter()
            .map(|s| s.version)
            .collect()
    }

    /// Live subscriber count.
    #[must_use]
    pub fn subscriber_count(&self) -> usize {
        lock_unpoisoned(&self.inner)
            .subs
            .iter()
            .filter(|s| s.is_some())
            .count()
    }

    /// Registers, at `now`, a replica that currently holds `versions`; its
    /// lease runs from there. Shards where the replica matches the feed
    /// stream directly; mismatched shards start in the resync-needed state.
    #[must_use]
    pub fn subscribe(&self, versions: &[u64], now: Instant) -> SubId {
        let mut inner = lock_unpoisoned(&self.inner);
        let shards = (0..self.cfg.shards)
            .map(|s| {
                let have = versions.get(s).copied().unwrap_or(0);
                let want = inner.shards[s].version;
                SubShard {
                    queue: VecDeque::new(),
                    base: want,
                    acked: have.min(want),
                    skip_until: 0,
                    phase: if have == want {
                        Phase::Streaming
                    } else {
                        Phase::Needed
                    },
                }
            })
            .collect();
        let sub = SubState {
            shards,
            last_ack: now,
            queued_total: 0,
        };
        let id = match inner.subs.iter().position(Option::is_none) {
            Some(slot) => {
                inner.subs[slot] = Some(sub);
                slot
            }
            None => {
                inner.subs.push(Some(sub));
                inner.subs.len() - 1
            }
        };
        SubId(id)
    }

    /// Drops a subscriber (its connection closed).
    pub fn unsubscribe(&self, id: SubId) {
        let mut inner = lock_unpoisoned(&self.inner);
        if let Some(slot) = inner.subs.get_mut(id.0) {
            *slot = None;
        }
    }

    /// Feeds released records into every live subscriber's queues.
    /// Caller holds the lock.
    fn release(inner: &mut FeedInner, cfg: &ReplConfig, counters: &ReplCounters, shard: usize) {
        let state = &mut inner.shards[shard];
        let mut released: Vec<(u64, ReplRecord)> = Vec::new();
        while let Some(rec) = state.pending.remove(&(state.version + 1)) {
            state.version += 1;
            released.push((state.version, rec));
        }
        if released.is_empty() {
            return;
        }
        for sub in inner.subs.iter_mut().flatten() {
            let ss = &mut sub.shards[shard];
            match ss.phase {
                Phase::Needed => continue,
                Phase::Streaming | Phase::Armed => {}
            }
            for &(seq, rec) in &released {
                if seq <= ss.skip_until {
                    continue;
                }
                ss.queue.push_back((seq, rec));
                sub.queued_total += 1;
            }
            // Overflow sheds the worst offender, not whichever shard
            // happened to be releasing: drop whole per-shard queues,
            // largest first, until back under the cap. Each dropped
            // shard is flagged for snapshot resync (an armed shard
            // re-flags too; its in-flight cut will fail and restart).
            while sub.queued_total > cfg.max_queue {
                let Some(worst) = sub
                    .shards
                    .iter()
                    .enumerate()
                    .filter(|(_, ss)| !ss.queue.is_empty())
                    .max_by_key(|(_, ss)| ss.queue.len())
                    .map(|(s, _)| s)
                else {
                    break;
                };
                let ss = &mut sub.shards[worst];
                sub.queued_total -= ss.queue.len();
                ss.queue.clear();
                ss.phase = Phase::Needed;
                counters.overflows.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Ingests records for `shard` in any order; contiguous-`seq` runs
    /// past the released version fan out to subscribers. Duplicates
    /// (seq at or below the released version) are dropped.
    pub fn publish(&self, shard: u32, records: &[Staged]) {
        let shard = shard as usize;
        if shard >= self.cfg.shards {
            return;
        }
        let mut inner = lock_unpoisoned(&self.inner);
        {
            let state = &mut inner.shards[shard];
            for rec in records {
                if rec.seq <= state.version {
                    continue;
                }
                state.pending.insert(rec.seq, staged_to_record(rec));
            }
        }
        Self::release(&mut inner, &self.cfg, &self.counters, shard);
    }

    /// Re-bases the feed on `versions` — the promotion path. A replica's
    /// feed goes stale while batches apply around it (apply bypasses the
    /// tap), so on promotion the new primary snaps its feed to the store's
    /// current versions. Pending out-of-order records are dropped, and any
    /// existing subscriber whose stream no longer lines up is flagged for
    /// snapshot resync.
    pub fn reset_versions(&self, versions: &[u64]) {
        let mut inner = lock_unpoisoned(&self.inner);
        assert_eq!(versions.len(), inner.shards.len(), "one version per shard");
        for (s, &v) in versions.iter().enumerate() {
            inner.shards[s].version = v;
            inner.shards[s].pending.clear();
        }
        for sub in inner.subs.iter_mut().flatten() {
            for (s, ss) in sub.shards.iter_mut().enumerate() {
                if ss.phase == Phase::Streaming && ss.queue.is_empty() && ss.base == versions[s] {
                    continue;
                }
                sub.queued_total -= ss.queue.len();
                ss.queue.clear();
                ss.phase = Phase::Needed;
            }
        }
    }

    /// Pops up to `max_records` queued records for `id`, grouped into one
    /// version-stamped batch per shard. Only streaming shards drain;
    /// armed shards hold their queue behind the in-flight snapshot.
    #[must_use]
    pub fn drain(&self, id: SubId, max_records: usize) -> Vec<OutBatch> {
        let mut inner = lock_unpoisoned(&self.inner);
        let Some(Some(sub)) = inner.subs.get_mut(id.0) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        let mut budget = max_records;
        for (s, ss) in sub.shards.iter_mut().enumerate() {
            if budget == 0 {
                break;
            }
            if ss.phase != Phase::Streaming || ss.queue.is_empty() {
                continue;
            }
            let take = ss.queue.len().min(budget);
            let mut records = Vec::with_capacity(take);
            let prev_version = ss.base;
            for _ in 0..take {
                let (seq, rec) = ss.queue.pop_front().expect("len checked");
                debug_assert_eq!(seq, ss.base + records.len() as u64 + 1);
                records.push(rec);
            }
            budget -= take;
            ss.base += take as u64;
            sub.queued_total -= take;
            self.counters.batches_sent.fetch_add(1, Ordering::Relaxed);
            self.counters
                .records_sent
                .fetch_add(take as u64, Ordering::Relaxed);
            out.push(OutBatch {
                shard: s as u32,
                prev_version,
                records,
            });
        }
        out
    }

    /// Per-shard versions the subscriber reaches once everything drained
    /// so far is applied — what a heartbeat stamps as `prev_version`.
    /// Shards not currently streaming report `None` (no heartbeat while
    /// a resync is pending; the snapshot is the keepalive).
    #[must_use]
    pub fn heartbeat_versions(&self, id: SubId) -> Vec<Option<u64>> {
        let inner = lock_unpoisoned(&self.inner);
        match inner.subs.get(id.0) {
            Some(Some(sub)) => sub
                .shards
                .iter()
                .map(|ss| {
                    if ss.phase == Phase::Streaming && ss.queue.is_empty() {
                        Some(ss.base)
                    } else {
                        None
                    }
                })
                .collect(),
            _ => Vec::new(),
        }
    }

    /// Records an `REPL_ACK` from `id` taken at `now`: refreshes the lease
    /// and, on a NAK, flags the shard for snapshot resync.
    pub fn note_ack(&self, id: SubId, shard: u32, version: u64, nak: bool, now: Instant) {
        let mut inner = lock_unpoisoned(&self.inner);
        let Some(Some(sub)) = inner.subs.get_mut(id.0) else {
            return;
        };
        sub.last_ack = sub.last_ack.max(now);
        let Some(ss) = sub.shards.get_mut(shard as usize) else {
            return;
        };
        if nak {
            // ConcurrencyConflict on the wire: the replica's version is
            // not what the stream assumed. Drop the queue and resync.
            sub.queued_total -= ss.queue.len();
            ss.queue.clear();
            ss.phase = Phase::Needed;
            self.counters.naks.fetch_add(1, Ordering::Relaxed);
        } else {
            ss.acked = ss.acked.max(version);
            self.counters.acks.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Shards of `id` waiting for a snapshot resync.
    #[must_use]
    pub fn resync_needed(&self, id: SubId) -> Vec<u32> {
        let inner = lock_unpoisoned(&self.inner);
        match inner.subs.get(id.0) {
            Some(Some(sub)) => sub
                .shards
                .iter()
                .enumerate()
                .filter(|(_, ss)| ss.phase == Phase::Needed)
                .map(|(s, _)| s as u32)
                .collect(),
            _ => Vec::new(),
        }
    }

    /// Arms a resync on `(id, shard)`: from now on released records
    /// queue again (held behind the snapshot), so the connection can take
    /// a store snapshot with nothing falling in the gap.
    pub fn arm_resync(&self, id: SubId, shard: u32) {
        let mut inner = lock_unpoisoned(&self.inner);
        let base = inner.shards[shard as usize].version;
        if let Some(Some(sub)) = inner.subs.get_mut(id.0) {
            let ss = &mut sub.shards[shard as usize];
            sub.queued_total -= ss.queue.len();
            ss.queue.clear();
            ss.base = base;
            ss.skip_until = 0;
            ss.phase = Phase::Armed;
        }
    }

    /// Completes a resync after the snapshot (taken at `snap_version`)
    /// was queued for sending: drops queued records the snapshot already
    /// covers and resumes streaming from `snap_version`. Returns `false`
    /// if the shard is no longer armed (a concurrent overflow re-flagged
    /// it) — the caller restarts the resync.
    pub fn resync_cut(&self, id: SubId, shard: u32, snap_version: u64) -> bool {
        let mut inner = lock_unpoisoned(&self.inner);
        let Some(Some(sub)) = inner.subs.get_mut(id.0) else {
            return false;
        };
        let ss = &mut sub.shards[shard as usize];
        if ss.phase != Phase::Armed {
            return false;
        }
        while let Some(&(seq, _)) = ss.queue.front() {
            if seq > snap_version {
                break;
            }
            ss.queue.pop_front();
            sub.queued_total -= 1;
        }
        if ss.queue.is_empty() {
            // Snapshot is ahead of the released stream (it came from the
            // live cache): skip released records it already covers.
            ss.base = snap_version.max(ss.base);
            ss.skip_until = snap_version;
        } else {
            ss.base = snap_version;
        }
        ss.acked = ss.acked.max(snap_version);
        ss.phase = Phase::Streaming;
        self.counters.resyncs.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// When each subscriber's lease runs out: a whole lease after its last
    /// ack. It is live until then, and not at that instant.
    fn lease_expiries<'a>(&'a self, inner: &'a FeedInner) -> impl Iterator<Item = Instant> + 'a {
        let subs = inner.subs.iter().flatten();
        subs.map(|sub| sub.last_ack + self.cfg.lease)
    }

    /// When the lease of the next subscriber still inside it at `now` runs
    /// out: the next instant [`ReplFeed::fenced`] may turn true with no
    /// ack arriving. `None` with no live subscriber.
    #[must_use]
    pub fn next_lease_expiry(&self, now: Instant) -> Option<Instant> {
        let inner = lock_unpoisoned(&self.inner);
        self.lease_expiries(&inner).filter(|&e| now < e).min()
    }

    /// Whether the primary is fenced at `now`: `min_acks > 0` and fewer
    /// than that many subscribers acked within the lease window before
    /// it. A fenced primary must not acknowledge writes. The verdict is
    /// kept for STATS.
    #[must_use]
    pub fn fenced(&self, now: Instant) -> bool {
        if self.cfg.min_acks == 0 {
            return false;
        }
        let inner = lock_unpoisoned(&self.inner);
        let live = self.lease_expiries(&inner).filter(|&e| now < e).count();
        let fenced = live < self.cfg.min_acks;
        self.last_fenced.store(fenced, Ordering::Relaxed);
        fenced
    }

    /// Whether `min_acks` subscribers acked shard `shard` at or past
    /// `version`, the primary is fenced at `now`, or neither yet. Never
    /// blocks. A `Fenced` answer counts one fenced reject: the caller
    /// answers the write with it.
    #[must_use]
    pub fn ack_state(&self, shard: u32, version: u64, now: Instant) -> AckState {
        if self.cfg.min_acks == 0 {
            return AckState::Acked;
        }
        let acked = lock_unpoisoned(&self.inner)
            .subs
            .iter()
            .flatten()
            .filter(|sub| {
                sub.shards
                    .get(shard as usize)
                    .is_some_and(|ss| ss.acked >= version)
            })
            .count();
        if acked >= self.cfg.min_acks {
            return AckState::Acked;
        }
        if self.fenced(now) {
            self.counters.fenced_rejects.fetch_add(1, Ordering::Relaxed);
            return AckState::Fenced;
        }
        AckState::Pending
    }

    /// The STATS `repl` object for a primary.
    #[must_use]
    pub fn stats_json(&self) -> String {
        let versions = self.versions();
        let c = &self.counters;
        let mut w = JsonWriter::new();
        w.begin_object()
            .field_str("role", "primary")
            .field_u64("min_acks", self.cfg.min_acks as u64)
            .field_u64("lease_ms", self.cfg.lease.as_millis() as u64)
            .field_bool("fenced", self.last_fenced.load(Ordering::Relaxed))
            .field_u64("subscribers", self.subscriber_count() as u64)
            .key("versions")
            .begin_array();
        for v in versions {
            w.u64(v);
        }
        w.end_array()
            .field_u64("batches_sent", c.batches_sent())
            .field_u64("records_sent", c.records_sent())
            .field_u64("acks", c.acks())
            .field_u64("naks", c.naks())
            .field_u64("resyncs", c.resyncs())
            .field_u64("overflows", c.overflows())
            .field_u64("fenced_rejects", c.fenced_rejects())
            .end_object();
        w.finish()
    }
}

/// Converts a WAL post-image into its wire record.
#[must_use]
pub fn staged_to_record(rec: &Staged) -> ReplRecord {
    ReplRecord {
        kind: match rec.kind {
            WalKind::Put => gocc_wire::REPL_KIND_PUT,
            WalKind::Del => REPL_KIND_DEL,
            WalKind::PutVal => gocc_wire::REPL_KIND_PUTVAL,
        },
        key: rec.key,
        value: rec.value,
        exp: rec.exp,
    }
}

/// Replica-side accumulator for chunked snapshot resync batches.
///
/// `RESET` starts (or restarts) a shard's image; plain `SNAP` chunks
/// append; `FIN` yields the complete image to apply atomically. Chunks
/// for a shard that never saw `RESET` are ignored (a torn earlier
/// resync), as is a `FIN` without one.
#[derive(Debug, Default)]
pub struct SnapshotAssembler {
    images: BTreeMap<u32, Vec<(u64, u64, u64)>>,
}

impl SnapshotAssembler {
    /// An empty assembler.
    #[must_use]
    pub fn new() -> Self {
        SnapshotAssembler::default()
    }

    /// Feeds one `SNAP` batch. Returns the complete `(entries, version)`
    /// image when `flags` carries `FIN`.
    pub fn feed(
        &mut self,
        shard: u32,
        flags: u8,
        prev_version: u64,
        records: &[ReplRecord],
    ) -> Option<(Vec<(u64, u64, u64)>, u64)> {
        if flags & REPL_FLAG_RESET != 0 {
            self.images.insert(shard, Vec::new());
        }
        if let Some(entries) = self.images.get_mut(&shard) {
            entries.extend(records.iter().map(|r: &ReplRecord| (r.key, r.value, r.exp)));
        } else {
            return None;
        }
        if flags & REPL_FLAG_FIN != 0 {
            return self
                .images
                .remove(&shard)
                .map(|entries| (entries, prev_version));
        }
        None
    }

    /// Shards with a resync currently in flight.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.images.len()
    }
}

/// Bounded seeded backoff for reconnect/resync loops: deterministic per
/// `(seed, stream, attempt)`, growing 2^attempt up to `cap`, with ±25%
/// seeded jitter so lockstep replicas do not thundering-herd a promoted
/// primary.
#[must_use]
pub fn resync_backoff(
    seed: u64,
    stream: u64,
    attempt: u32,
    base: Duration,
    cap: Duration,
) -> Duration {
    let exp = base.saturating_mul(1u32 << attempt.min(16));
    let capped = exp.min(cap).as_nanos() as u64;
    // One independent draw per (seed, stream, attempt), same xor-fold the
    // fault plans use for replay-by-seed.
    let folded = seed
        ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ u64::from(attempt).wrapping_mul(0xD1B5_4A32_D192_ED03);
    let draw = SplitMix64::new(folded).next_u64();
    // Jitter in [0.75, 1.25).
    let jitter = 0.75 + (draw >> 11) as f64 * (1.0 / (1u64 << 53) as f64) * 0.5;
    Duration::from_nanos((capped as f64 * jitter) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn staged(shard: u32, seq: u64, key: u64, value: u64) -> Staged {
        Staged {
            shard,
            seq,
            kind: WalKind::Put,
            key,
            value,
            exp: 0,
        }
    }

    fn feed(shards: usize) -> ReplFeed {
        ReplFeed::new(
            ReplConfig {
                shards,
                ..ReplConfig::default()
            },
            &vec![0; shards],
        )
    }

    #[test]
    fn pipe_order_is_reordered_into_seq_order() {
        let f = feed(1);
        let sub = f.subscribe(&[0], Instant::now());
        // Publish 3,1 then 2: nothing streams past the gap until it fills.
        f.publish(0, &[staged(0, 3, 30, 300), staged(0, 1, 10, 100)]);
        let b = f.drain(sub, 100);
        assert_eq!(b.len(), 1);
        assert_eq!(b[0].prev_version, 0);
        assert_eq!(b[0].records.len(), 1, "only seq 1 is contiguous");
        f.publish(0, &[staged(0, 2, 20, 200)]);
        let b = f.drain(sub, 100);
        assert_eq!(b[0].prev_version, 1);
        let keys: Vec<u64> = b[0].records.iter().map(|r| r.key).collect();
        assert_eq!(keys, vec![20, 30], "released in seq order");
        assert_eq!(f.versions(), vec![3]);
    }

    #[test]
    fn duplicate_publishes_are_dropped() {
        let f = feed(1);
        let sub = f.subscribe(&[0], Instant::now());
        f.publish(0, &[staged(0, 1, 1, 1), staged(0, 2, 2, 2)]);
        f.publish(0, &[staged(0, 1, 1, 999), staged(0, 2, 2, 999)]);
        let b = f.drain(sub, 100);
        assert_eq!(b[0].records.len(), 2);
        assert_eq!(b[0].records[0].value, 1, "replay did not overwrite");
        assert!(f.drain(sub, 100).is_empty());
    }

    #[test]
    fn behind_subscriber_starts_in_resync() {
        let f = feed(2);
        f.publish(0, &[staged(0, 1, 1, 1)]);
        let sub = f.subscribe(&[0, 0], Instant::now()); // shard 0 behind, shard 1 matches
        assert_eq!(f.resync_needed(sub), vec![0]);
        // Streamed shard works immediately.
        f.publish(1, &[staged(1, 1, 7, 70)]);
        let b = f.drain(sub, 100);
        assert_eq!(b.len(), 1);
        assert_eq!(b[0].shard, 1);
    }

    #[test]
    fn resync_arm_cut_resumes_the_stream_without_loss_or_replay() {
        let f = feed(1);
        f.publish(0, &[staged(0, 1, 1, 1), staged(0, 2, 2, 2)]);
        let sub = f.subscribe(&[0], Instant::now()); // behind: needs resync
        assert_eq!(f.resync_needed(sub), vec![0]);
        f.arm_resync(sub, 0);
        // Records released while armed queue behind the snapshot.
        f.publish(0, &[staged(0, 3, 3, 3)]);
        assert!(f.drain(sub, 100).is_empty(), "armed shard must not drain");
        // Snapshot taken from the live cache at version 4 — ahead of the
        // released stream (seq 4 not yet durable).
        assert!(f.resync_cut(sub, 0, 4));
        assert!(f.drain(sub, 100).is_empty(), "snapshot covered seq 3");
        // seq 4 releases later: covered by the snapshot, skipped.
        f.publish(0, &[staged(0, 4, 4, 4)]);
        assert!(f.drain(sub, 100).is_empty());
        // seq 5 is the first post-snapshot record.
        f.publish(0, &[staged(0, 5, 5, 5)]);
        let b = f.drain(sub, 100);
        assert_eq!(b[0].prev_version, 4);
        assert_eq!(b[0].records.len(), 1);
        assert_eq!(b[0].records[0].key, 5);
        assert_eq!(f.counters().resyncs(), 1);
    }

    #[test]
    fn overflow_drops_the_queue_and_flags_resync() {
        let f = ReplFeed::new(
            ReplConfig {
                shards: 1,
                max_queue: 4,
                ..ReplConfig::default()
            },
            &[0],
        );
        let sub = f.subscribe(&[0], Instant::now());
        let recs: Vec<Staged> = (1..=10).map(|i| staged(0, i, i, i)).collect();
        f.publish(0, &recs);
        assert_eq!(f.counters().overflows(), 1);
        assert_eq!(f.resync_needed(sub), vec![0]);
        assert!(f.drain(sub, 100).is_empty(), "overflowed queue was dropped");
    }

    #[test]
    fn overflow_drops_the_backlogged_shard_not_the_releasing_one() {
        let f = ReplFeed::new(
            ReplConfig {
                shards: 2,
                max_queue: 4,
                ..ReplConfig::default()
            },
            &[0, 0],
        );
        let sub = f.subscribe(&[0, 0], Instant::now());
        // Shard 0 holds the backlog (4 records, at the cap but not over).
        let backlog: Vec<Staged> = (1..=4).map(|i| staged(0, i, i, i)).collect();
        f.publish(0, &backlog);
        assert_eq!(f.counters().overflows(), 0);
        // One record on healthy shard 1 tips the total over the cap: the
        // drop must hit shard 0's backlog, not the shard releasing now.
        f.publish(1, &[staged(1, 1, 77, 770)]);
        assert_eq!(f.counters().overflows(), 1);
        assert_eq!(f.resync_needed(sub), vec![0], "backlogged shard resyncs");
        let b = f.drain(sub, 100);
        assert_eq!(b.len(), 1, "healthy shard kept its queue");
        assert_eq!(b[0].shard, 1);
        assert_eq!(b[0].records[0].key, 77);
    }

    #[test]
    fn nak_flags_resync() {
        let f = feed(1);
        let sub = f.subscribe(&[0], Instant::now());
        f.publish(0, &[staged(0, 1, 1, 1)]);
        let _ = f.drain(sub, 100);
        f.note_ack(sub, 0, 0, true, Instant::now());
        assert_eq!(f.resync_needed(sub), vec![0]);
        assert_eq!(f.counters().naks(), 1);
    }

    #[test]
    fn ack_state_gates_on_min_acks() {
        let f = ReplFeed::new(
            ReplConfig {
                shards: 1,
                min_acks: 1,
                lease: Duration::from_secs(10),
                ..ReplConfig::default()
            },
            &[0],
        );
        let sub = f.subscribe(&[0], Instant::now());
        f.publish(0, &[staged(0, 1, 1, 1)]);
        assert_eq!(f.ack_state(0, 1, Instant::now()), AckState::Pending);
        f.note_ack(sub, 0, 1, false, Instant::now());
        assert_eq!(f.ack_state(0, 1, Instant::now()), AckState::Acked);
        assert_eq!(f.ack_state(0, 2, Instant::now()), AckState::Pending);
        // Asynchronous replication gates nothing.
        assert_eq!(feed(1).ack_state(0, 7, Instant::now()), AckState::Acked);
    }

    #[test]
    fn lease_expiry_fences_the_primary() {
        let lease = Duration::from_millis(30);
        let f = ReplFeed::new(
            ReplConfig {
                shards: 1,
                min_acks: 1,
                lease,
                ..ReplConfig::default()
            },
            &[0],
        );
        let t0 = Instant::now();
        let sub = f.subscribe(&[0], t0);
        f.note_ack(sub, 0, 0, false, t0 + lease / 2);
        let expiry = t0 + lease / 2 + lease;
        assert_eq!(f.next_lease_expiry(t0), Some(expiry));
        let before = expiry - Duration::from_nanos(1);
        assert!(
            !f.fenced(before),
            "an ack holds the lease a whole lease long"
        );
        assert!(
            f.fenced(expiry),
            "silence past the lease fences the primary"
        );
        assert_eq!(f.next_lease_expiry(expiry), None);
        assert_eq!(f.ack_state(0, 5, expiry), AckState::Fenced);
        assert_eq!(f.counters().fenced_rejects(), 1);
        // An ack from the replica un-fences; one taken at an older instant
        // on another worker does not move the lease back.
        f.note_ack(sub, 0, 5, false, expiry);
        f.note_ack(sub, 0, 5, false, t0);
        assert!(!f.fenced(expiry));
        assert_eq!(f.ack_state(0, 5, expiry), AckState::Acked);
    }

    #[test]
    fn heartbeat_versions_track_the_drained_stream() {
        let f = feed(2);
        let sub = f.subscribe(&[0, 0], Instant::now());
        assert_eq!(f.heartbeat_versions(sub), vec![Some(0), Some(0)]);
        f.publish(0, &[staged(0, 1, 1, 1)]);
        // Undrained queue: no heartbeat (the data batch is the keepalive).
        assert_eq!(f.heartbeat_versions(sub)[0], None);
        let _ = f.drain(sub, 100);
        assert_eq!(f.heartbeat_versions(sub), vec![Some(1), Some(0)]);
    }

    #[test]
    fn reset_versions_rebases_the_feed_and_flags_stale_subscribers() {
        let f = feed(1);
        let sub = f.subscribe(&[0], Instant::now());
        f.publish(0, &[staged(0, 1, 1, 1)]);
        let _ = f.drain(sub, 100);
        // Promotion: the store is at version 40 (applied via batches that
        // bypassed the tap).
        f.reset_versions(&[40]);
        assert_eq!(f.versions(), vec![40]);
        assert_eq!(f.resync_needed(sub), vec![0], "stale stream must resync");
        // Post-promotion writes stream from the new base.
        f.arm_resync(sub, 0);
        assert!(f.resync_cut(sub, 0, 40));
        f.publish(0, &[staged(0, 41, 9, 90)]);
        let b = f.drain(sub, 100);
        assert_eq!(b[0].prev_version, 40);
        assert_eq!(b[0].records[0].key, 9);
        // A subscriber already exactly at the new base keeps streaming.
        let fresh = f.subscribe(&[41], Instant::now());
        f.reset_versions(&[41]);
        assert!(f.resync_needed(fresh).is_empty());
    }

    #[test]
    fn snapshot_assembler_handles_reset_chunks_and_fin() {
        let mut asm = SnapshotAssembler::new();
        let rec = |k: u64| ReplRecord {
            kind: gocc_wire::REPL_KIND_PUT,
            key: k,
            value: k * 2,
            exp: 0,
        };
        use gocc_wire::REPL_FLAG_SNAP;
        // Chunk without RESET: torn resync, ignored.
        assert!(asm.feed(0, REPL_FLAG_SNAP, 5, &[rec(9)]).is_none());
        assert!(asm
            .feed(0, REPL_FLAG_SNAP | REPL_FLAG_FIN, 5, &[])
            .is_none());
        // Proper RESET → chunk → FIN.
        assert!(asm
            .feed(0, REPL_FLAG_SNAP | REPL_FLAG_RESET, 7, &[rec(1)])
            .is_none());
        assert!(asm.feed(0, REPL_FLAG_SNAP, 7, &[rec(2)]).is_none());
        let (entries, version) = asm
            .feed(0, REPL_FLAG_SNAP | REPL_FLAG_FIN, 7, &[rec(3)])
            .expect("FIN completes the image");
        assert_eq!(version, 7);
        assert_eq!(entries, vec![(1, 2, 0), (2, 4, 0), (3, 6, 0)]);
        assert_eq!(asm.in_flight(), 0);
        // RESET mid-flight restarts.
        assert!(asm
            .feed(1, REPL_FLAG_SNAP | REPL_FLAG_RESET, 3, &[rec(8)])
            .is_none());
        assert!(asm
            .feed(1, REPL_FLAG_SNAP | REPL_FLAG_RESET, 4, &[rec(5)])
            .is_none());
        let (entries, version) = asm.feed(1, REPL_FLAG_SNAP | REPL_FLAG_FIN, 4, &[]).unwrap();
        assert_eq!(version, 4);
        assert_eq!(entries, vec![(5, 10, 0)]);
    }

    #[test]
    fn backoff_is_deterministic_bounded_and_growing() {
        let base = Duration::from_millis(10);
        let cap = Duration::from_millis(500);
        let a: Vec<Duration> = (0..8).map(|n| resync_backoff(7, 3, n, base, cap)).collect();
        let b: Vec<Duration> = (0..8).map(|n| resync_backoff(7, 3, n, base, cap)).collect();
        assert_eq!(a, b, "same seed, same schedule");
        for d in &a {
            assert!(*d <= cap.mul_f64(1.25), "bounded: {d:?}");
            assert!(*d >= base.mul_f64(0.74), "never collapses to zero: {d:?}");
        }
        assert!(a[5] > a[0], "grows before the cap");
        let c: Vec<Duration> = (0..8).map(|n| resync_backoff(8, 3, n, base, cap)).collect();
        assert_ne!(a, c, "seed changes the jitter");
    }

    #[test]
    fn stats_json_parses() {
        let f = feed(2);
        let sub = f.subscribe(&[0, 0], Instant::now());
        f.publish(0, &[staged(0, 1, 1, 1)]);
        let _ = f.drain(sub, 10);
        f.note_ack(sub, 0, 1, false, Instant::now());
        let v = gocc_telemetry::JsonValue::parse(&f.stats_json()).expect("parses");
        assert_eq!(v.get("role").unwrap().as_str(), Some("primary"));
        assert_eq!(v.get("subscribers").unwrap().as_f64(), Some(1.0));
        assert_eq!(v.get("acks").unwrap().as_f64(), Some(1.0));
        let versions = v.get("versions").unwrap().as_array().unwrap();
        assert_eq!(versions[0].as_f64(), Some(1.0));
    }
}
