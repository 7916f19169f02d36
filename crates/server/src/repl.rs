//! Server-side replication wiring: the primary's per-subscriber stream
//! pump and the replica's sink.
//!
//! The division of labor with `gocc-repl`:
//!
//! * [`gocc_repl::ReplFeed`] owns the protocol *state* (reorder buffer,
//!   per-subscriber queues, resync phases, leases). It is fed by the WAL
//!   syncer's durable tap (or directly by the request path on a no-WAL
//!   primary) and knows nothing about sockets.
//! * [`gocc_repl::Role`] owns the *election rules*. Each rule here is one
//!   `Role` call under `ServerState::role`'s lock, which the sink also
//!   holds to apply a batch, and which no socket write, WAL wait,
//!   checkpoint or canvass holds.
//! * On the primary, [`pump_repl_out`] runs inside a subscriber
//!   connection's pump quantum, on the worker that accepted it (no worker
//!   blocks on a replica; it is woken when the feed takes records and at
//!   the next heartbeat), and turns feed state into `REPL_BATCH` frames:
//!   snapshot chunks for resyncing shards, incremental batches for
//!   streaming ones, count-0 heartbeats to keep the lease audited;
//!   [`handle_repl_frame`] answers the replication verbs a connection
//!   receives (HELLO, ACK, the election's CANDIDATE and EPOCH_ANNOUNCE,
//!   PROMOTE).
//! * On a replica, [`Sink`] is the sink and the election as one machine:
//!   `Sink::step(now, input)` takes the upstream's bytes or the end of its
//!   stream, a peer's vote or its absence, a dial's result, or a tick, and
//!   returns its phase, the frames to write, the dials to make and its
//!   next deadline. It applies batches, parks each ACK behind its WAL ticket,
//!   suspects a silent upstream by one rule in session and out, and asks
//!   every peer for its vote at once. [`replica_loop`], the
//!   `goccd-replica` thread, is its one driver: the only code here that
//!   reads the clock or touches a socket, and its only wait is
//!   `idle::wait`.

use std::collections::VecDeque;
use std::io::{self, Read};
use std::net::{TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, MutexGuard};
use std::time::{Duration, Instant};

use gocc_faultplane::TransportFaultPlan;
use gocc_repl::{resync_backoff, Admit, ReplFeed, Role, SnapshotAssembler, SubId};
use gocc_telemetry::{JsonWriter, SpanKind};
use gocc_wal::{DurableState, Staged, WalKind, WalTicket};
use gocc_wire::{
    decode_response, encode_request_v2, encode_response, write_frame, FaultyStream, FrameBuf, Pipe,
    ReplRecord, ReplRequest, Request, Response, REPL_FLAG_FIN, REPL_FLAG_RESET, REPL_FLAG_SNAP,
    REPL_KIND_DEL, REPL_KIND_PUT,
};
use gocc_workloads::Engine;

use crate::conn::{encode_error, span_since, stamp};
use crate::{checkpoint, idle, ServerState, WorkerCtx};

/// Records per incremental `REPL_BATCH` frame (and per snapshot chunk):
/// ~100 KiB of payload, far under the 1 MiB frame cap, so one slow frame
/// never monopolizes a worker's write path.
const BATCH_RECORDS: usize = 4096;

/// Stop draining the feed into a subscriber connection once this many
/// response bytes are queued — TCP backpressure, not unbounded memory.
const OUT_HIGH_WATER: usize = 256 * 1024;

/// One subscribed replica stream, owned by its connection.
pub(crate) struct ReplSub {
    /// The feed-side subscriber slot.
    pub(crate) id: SubId,
    /// Last heartbeat emission.
    last_beat: Instant,
    /// Snapshot resync in flight: streamed chunk by chunk across pump
    /// quanta so the output buffer stays bounded by [`OUT_HIGH_WATER`]
    /// (plus one chunk) even for a huge shard.
    snap: Option<SnapStream>,
}

impl ReplSub {
    /// A stream subscribed at `now`, which counts as its last heartbeat.
    pub(crate) fn new(id: SubId, now: Instant) -> Self {
        ReplSub {
            id,
            last_beat: now,
            snap: None,
        }
    }

    /// When [`pump_repl_out`] owes this stream its next heartbeat.
    pub(crate) fn next_beat(&self, lease: Duration) -> Instant {
        self.last_beat + lease / 4
    }
}

/// One armed shard snapshot mid-stream. Holding the raw entries (24 B
/// each) instead of encoding the whole shard at once is what keeps the
/// per-subscriber output buffer bounded — the encoded chunks are
/// produced lazily, backpressured by the connection's flush.
struct SnapStream {
    shard: u32,
    entries: Vec<(u64, u64, u64)>,
    /// The snapshot's version — `prev_version` on every chunk, and the
    /// cut point handed back to the feed at FIN.
    seq: u64,
    now: u64,
    /// Next entry index to encode: the first chunk, at 0, is the RESET.
    next: usize,
}

/// One pump quantum of primary→replica output for a subscribed stream at
/// the pass's instant `now`: snapshot-resync any flagged shards, drain
/// incremental batches, and emit heartbeats when due (count-0 batches
/// stamped with the stream's version, which double as the version audit
/// that keeps the lease honest). Returns whether anything was produced.
pub(crate) fn pump_repl_out(
    sub: &mut ReplSub,
    feed: &ReplFeed,
    state: &ServerState,
    engine: &Engine<'_>,
    outbuf: &mut Vec<u8>,
    now: Instant,
) -> bool {
    let (epoch, start) = (state.epoch(), outbuf.len());

    // Snapshot resync, one shard at a time, streamed across pump
    // quanta: arm (so records released from here on queue *behind* the
    // snapshot), snapshot the live shard in one read section, ship it
    // chunked — pausing whenever the output buffer crosses
    // [`OUT_HIGH_WATER`] and resuming from the last chunk next quantum —
    // then cut the queue at the snapshot's version. If an overflow
    // re-flagged the shard while chunks streamed, the cut fails and a
    // later pump restarts the resync — the replica's assembler handles
    // a second RESET mid-flight.
    while outbuf.len() < OUT_HIGH_WATER {
        if sub.snap.is_none() {
            let Some(&shard) = feed.resync_needed(sub.id).first() else {
                break;
            };
            feed.arm_resync(sub.id, shard);
            let (entries, seq, clock) = state.store.shard_at(shard as usize).snapshot(engine);
            sub.snap = Some(SnapStream {
                shard,
                entries,
                seq,
                now: clock,
                next: 0,
            });
        }
        let snap = sub.snap.as_mut().expect("armed above");
        let end = (snap.next + BATCH_RECORDS).min(snap.entries.len());
        let last = end == snap.entries.len();
        let reset = if snap.next == 0 { REPL_FLAG_RESET } else { 0 };
        let fin = if last { REPL_FLAG_FIN } else { 0 };
        let records: Vec<ReplRecord> = snap.entries[snap.next..end]
            .iter()
            .map(|&(key, value, exp)| ReplRecord {
                kind: REPL_KIND_PUT,
                key,
                value,
                exp,
            })
            .collect();
        encode_response(
            &Response::ReplBatch {
                shard: snap.shard,
                flags: REPL_FLAG_SNAP | reset | fin,
                prev_version: snap.seq,
                now: snap.now,
                epoch,
                records,
            },
            outbuf,
        );
        snap.next = end;
        // Not the last chunk: the next one goes out on this pass, or on the
        // next pump's after the high-water mark.
        if last {
            let snap = sub.snap.take().expect("streamed above");
            let _ = feed.resync_cut(sub.id, snap.shard, snap.seq);
        }
    }

    // Incremental stream, bounded by output backpressure.
    while outbuf.len() < OUT_HIGH_WATER {
        let batches = feed.drain(sub.id, BATCH_RECORDS);
        if batches.is_empty() {
            break;
        }
        for b in batches {
            encode_response(
                &Response::ReplBatch {
                    shard: b.shard,
                    flags: 0,
                    prev_version: b.prev_version,
                    now: 0,
                    epoch,
                    records: b.records,
                },
                outbuf,
            );
        }
    }

    // Heartbeats at a quarter of the lease: an idle stream still acks
    // four times per window, so a healthy-but-quiet replica never gets
    // the primary fenced, and a version drift surfaces as a NAK even
    // with no traffic.
    if now >= sub.next_beat(state.config.repl_lease) {
        let versions = feed.heartbeat_versions(sub.id).into_iter().enumerate();
        for (shard, version) in versions.filter_map(|(shard, v)| Some((shard as u32, v?))) {
            encode_response(
                &Response::ReplBatch {
                    shard,
                    flags: 0,
                    prev_version: version,
                    now: 0,
                    epoch,
                    records: Vec::new(),
                },
                outbuf,
            );
        }
        sub.last_beat = now;
    }
    outbuf.len() > start
}

/// Replica-side counters, reported in the STATS `repl` object.
#[derive(Debug, Default)]
pub(crate) struct ReplicaCounters {
    batches_applied: AtomicU64,
    records_applied: AtomicU64,
    naks_sent: AtomicU64,
    snap_resyncs: AtomicU64,
    reconnects: AtomicU64,
    /// Times the failure detector declared the primary dead.
    pub(crate) suspicions: AtomicU64,
    /// Elections this node started as a candidate.
    pub(crate) elections: AtomicU64,
    /// Batches/welcomes rejected for carrying an epoch older than ours —
    /// a deposed primary's stream being fenced.
    pub(crate) stale_epoch_rejects: AtomicU64,
}

impl ReplicaCounters {
    pub(crate) fn json(&self, upstream: &str, versions: &[u64], epoch: u64) -> String {
        let mut w = JsonWriter::new();
        w.begin_object()
            .field_str("role", "replica")
            .field_str("upstream", upstream)
            .field_u64("epoch", epoch)
            .key("versions")
            .begin_array();
        for &v in versions {
            w.u64(v);
        }
        w.end_array();
        let counts = [
            ("batches_applied", &self.batches_applied),
            ("records_applied", &self.records_applied),
            ("naks_sent", &self.naks_sent),
            ("snap_resyncs", &self.snap_resyncs),
            ("reconnects", &self.reconnects),
            ("suspicions", &self.suspicions),
            ("elections", &self.elections),
            ("stale_epoch_rejects", &self.stale_epoch_rejects),
        ];
        for (name, count) in counts {
            w.field_u64(name, count.load(Ordering::Relaxed));
        }
        w.end_object();
        w.finish()
    }
}

/// How long a candidacy counts votes.
const CANVASS: Duration = Duration::from_millis(750);

/// What the driver hands [`Sink::step`].
#[derive(Debug)]
pub(crate) enum Input<'a> {
    /// Bytes from the upstream.
    Bytes(&'a [u8]),
    /// The upstream's stream ended or never opened: a dial that failed,
    /// end of file, a reset, or a write it did not take.
    Closed,
    /// The dial of the upstream connected.
    Connected,
    /// A peer's vote, `(granted, the highest epoch it knows)`, or its
    /// absence: no connection, no answer, or an answer with no vote in it.
    Vote(Option<(bool, u64)>),
    /// Nothing more: time may have moved on.
    Tick,
}

/// The connections a [`Step`] asks its driver to open.
#[derive(Debug)]
pub(crate) enum Dial {
    /// The upstream at this address; the next input is
    /// [`Input::Connected`] or [`Input::Closed`].
    Upstream(String),
    /// A pipe to each of these peers, sending it this `REPL_CANDIDATE`;
    /// each answer, or its absence, is an [`Input::Vote`].
    Vote(Vec<String>, Request<'static>),
    /// A `REPL_EPOCH` to each of these peers: the winner of the epoch lives
    /// at the address. Nothing comes back: the sink has stopped.
    Announce(Vec<String>, u64, String),
}

/// What a [`Sink::step`] leaves its driver to do, in this order.
#[derive(Debug)]
pub(crate) struct Step {
    /// Where the sink is now. The upstream's connection lives as long as
    /// a session, the peers' as long as a canvass.
    pub(crate) phase: Phase,
    /// Frames to write to the upstream.
    pub(crate) frames: Vec<u8>,
    /// Connections to open, after the write.
    pub(crate) dial: Option<Dial>,
    /// Step again with a tick at this instant, if nothing comes first.
    pub(crate) until: Option<Instant>,
}

/// Where a [`Sink`] is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Phase {
    /// Out of session until this instant, then dial the upstream.
    Backoff(Instant),
    /// HELLO sent; frames applied as they come.
    Session,
    /// Out of session, standing for election.
    Canvass(Canvass),
    /// Promoted, shut down, or refused for good.
    Stopped,
}

/// A candidacy in `epoch`, `short` of a majority by that many votes, with
/// `left` votes yet to come before `until`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Canvass {
    epoch: u64,
    short: usize,
    left: usize,
    until: Instant,
}

/// The replica sink and its election, one machine around [`Role`]. A step
/// takes one [`Input`] at the instant its driver hands in and returns the
/// [`Step`] to carry out; every time rule reads that instant, and nothing
/// here touches a socket, a sleep or a clock. [`replica_loop`] drives one
/// on the real clock, a test on its own.
///
/// One detector rule holds in session and out of one: the upstream is
/// suspected once `silent_since` is [`Role::suspect_window`] old. Bytes,
/// a HELLO and a lost candidacy reset it, so a wait that read bytes never
/// suspects. An ACK owed behind a WAL ticket parks (the log's tap wakes
/// the driver when it settles), so the sink reads on while an fsync runs.
pub(crate) struct Sink<'s> {
    state: &'s ServerState,
    engine: Engine<'s>,
    phase: Phase,
    /// The upstream followed: the role's, as of the last step.
    upstream: String,
    /// Failed dials and sessions: the reconnect backoff's exponent, reset
    /// by a repoint.
    attempt: u32,
    /// When the upstream last sent bytes or was sent a HELLO, or the last
    /// candidacy ended, whichever was latest.
    silent_since: Instant,
    /// The session's bytes that are no whole frame yet, and its snapshot.
    inbuf: FrameBuf,
    assembler: SnapshotAssembler,
    /// The session's ACKs not handed out yet, oldest first, each parked
    /// behind the WAL ticket of its batch's last record, if any.
    parked: VecDeque<(ReplRequest<'static>, Option<WalTicket>)>,
    /// The frames and the dial the next [`Step`] hands out.
    out: Vec<u8>,
    dial: Option<Dial>,
}

impl<'s> Sink<'s> {
    /// The sink of `state`, made at `now`: it dials the upstream at once.
    pub(crate) fn new(state: &'s ServerState, now: Instant) -> Self {
        Sink {
            state,
            engine: Engine::new(&state.rt, state.config.mode),
            phase: Phase::Backoff(now),
            upstream: state.upstream_hint(),
            attempt: 0,
            silent_since: now,
            inbuf: FrameBuf::new(),
            assembler: SnapshotAssembler::new(),
            parked: VecDeque::new(),
            out: Vec::new(),
            dial: None,
        }
    }

    /// Takes `input` at `now`, then applies every time rule at `now`.
    pub(crate) fn step(&mut self, now: Instant, input: Input<'_>) -> Step {
        let state = self.state;
        if state.shutting_down() || !state.is_replica() {
            self.phase = Phase::Stopped;
        }
        match (input, self.phase) {
            // Any bytes prove the upstream alive: count-0 heartbeats come
            // at lease/4, far inside the window. Every whole frame is
            // applied, until one ends the session.
            (Input::Bytes(bytes), Phase::Session) => {
                self.silent_since = now;
                let mut inbuf = std::mem::take(&mut self.inbuf);
                inbuf.extend(bytes);
                while self.phase == Phase::Session {
                    match inbuf.next_frame().map(|body| body.map(decode_response)) {
                        Ok(Some(Ok(resp))) => self.on_frame(now, resp),
                        Ok(None) => break,
                        _ => self.fail(now),
                    }
                }
                self.inbuf = inbuf;
            }
            (Input::Closed, Phase::Session | Phase::Backoff(_)) => self.fail(now),
            (Input::Connected, Phase::Backoff(_)) => self.open(now),
            (Input::Vote(vote), Phase::Canvass(canvass)) => self.count(now, canvass, vote),
            // A tick, or news for a phase that has passed.
            _ => {}
        }
        // A repoint, a followed hint or an announce moved the upstream:
        // the old one's session or backoff ends, and the new one is dialled
        // at once with a fresh backoff.
        let following = matches!(self.phase, Phase::Backoff(_) | Phase::Session);
        if following && state.role().upstream() != self.upstream {
            self.upstream = state.upstream_hint();
            self.attempt = 0;
            self.phase = Phase::Backoff(now);
        }
        // A due dial comes first: one that connects gives the upstream a
        // whole window, one that fails leaves the detector to judge.
        if matches!(self.phase, Phase::Backoff(at) if now >= at) {
            self.dial = Some(Dial::Upstream(self.upstream.clone()));
        } else if self.suspect_at().is_some_and(|at| now >= at) {
            self.suspect(now);
        }
        match self.phase {
            Phase::Canvass(canvass) if now >= canvass.until => self.lose(now),
            Phase::Session => self.release(now),
            _ => {}
        }
        let due = match self.phase {
            Phase::Backoff(at) => Some(at),
            Phase::Canvass(canvass) => Some(canvass.until),
            Phase::Session | Phase::Stopped => None,
        };
        Step {
            phase: self.phase,
            frames: std::mem::take(&mut self.out),
            dial: self.dial.take(),
            until: due.into_iter().chain(self.suspect_at()).min(),
        }
    }

    /// When the detector suspects the upstream: with auto-promotion, once
    /// it has been silent a window, in session or out of one.
    fn suspect_at(&self) -> Option<Instant> {
        let (config, role) = (&self.state.config, self.state.role());
        let window = role.suspect_window(config.repl_seed, config.repl_suspect);
        let following = matches!(self.phase, Phase::Backoff(_) | Phase::Session);
        (config.repl_auto_promote && following).then_some(self.silent_since + window)
    }

    /// The dial connected: HELLO with this node's versions, and a whole
    /// window for the upstream to answer, however long the one before it
    /// was silent.
    fn open(&mut self, now: Instant) {
        let versions = self.state.store.versions(&self.engine);
        let hello = Request::Repl(ReplRequest::Hello { versions });
        encode_request_v2(&hello, None, &mut self.out);
        self.silent_since = now;
        self.inbuf = FrameBuf::new();
        self.assembler = SnapshotAssembler::new();
        self.parked.clear();
        self.phase = Phase::Session;
    }

    /// A dial or a session failed: count a reconnect, back off longer.
    fn fail(&mut self, now: Instant) {
        self.attempt = self.attempt.saturating_add(1);
        let counters = &self.state.replica_stats;
        counters.reconnects.fetch_add(1, Ordering::Relaxed);
        self.backoff(now);
    }

    /// Out of session until the seeded backoff for `attempt` has passed.
    fn backoff(&mut self, now: Instant) {
        let (min, max) = (Duration::from_millis(10), Duration::from_millis(500));
        let wait = resync_backoff(self.state.config.repl_seed, 1, self.attempt, min, max);
        self.phase = Phase::Backoff(now + wait);
    }

    /// Admits a welcome or batch stamped `epoch` ([`Role::admit`]) and
    /// hands back the role lock it took, or ends the session.
    fn admit(&mut self, now: Instant, epoch: u64) -> Option<MutexGuard<'s, Role>> {
        let mut role = self.state.role();
        match role.admit(epoch) {
            Admit::Apply => return Some(role),
            Admit::Stop => self.phase = Phase::Stopped,
            Admit::Stale => {
                let rejects = &self.state.replica_stats.stale_epoch_rejects;
                rejects.fetch_add(1, Ordering::Relaxed);
                self.fail(now);
            }
        }
        None
    }

    /// One frame from the upstream.
    fn on_frame(&mut self, now: Instant, resp: Response<'_>) {
        let (state, counters) = (self.state, &self.state.replica_stats);
        match resp {
            // Topology mismatch is permanent: stop rather than redial it.
            Response::ReplWelcome { shards, .. } if shards as usize != state.store.shards() => {
                self.phase = Phase::Stopped;
            }
            // A stale epoch is a deposed primary's: the backoff redials,
            // or the winner's announce repoints.
            Response::ReplWelcome { epoch, .. } => drop(self.admit(now, epoch)),
            Response::ReplBatch { shard, .. } if shard as usize >= state.store.shards() => {
                self.fail(now);
            }
            Response::ReplBatch {
                shard,
                flags,
                prev_version: prev,
                now: clock,
                epoch,
                records,
            } => {
                // The role lock is held through the apply: once a
                // promotion has re-based the feed, no batch that sat
                // buffered may advance the store past it.
                let Some(role) = self.admit(now, epoch) else {
                    return;
                };
                let snap = flags & REPL_FLAG_SNAP != 0;
                let (version, nak) = if snap {
                    // Chunks before FIN are acked at FIN.
                    let image = self.assembler.feed(shard, flags, prev, &records);
                    let Some((entries, version)) = image else {
                        return;
                    };
                    let cache = state.store.shard_at(shard as usize);
                    cache.replace(&self.engine, &entries, version, clock);
                    counters.snap_resyncs.fetch_add(1, Ordering::Relaxed);
                    (version, false)
                } else {
                    let (store, trace_id) = (&state.store, state.rt.tracer().begin_request());
                    let t0 = stamp(trace_id);
                    let applied =
                        store.apply_repl_batch(&self.engine, shard as usize, prev, clock, &records);
                    span_since(state, trace_id, SpanKind::ReplApply, t0, shard.into(), prev);
                    match applied {
                        Ok(version) => {
                            counters.batches_applied.fetch_add(1, Ordering::Relaxed);
                            let n = records.len() as u64;
                            counters.records_applied.fetch_add(n, Ordering::Relaxed);
                            (version, false)
                        }
                        // The OCC conflict on the wire: our version is not
                        // what the stream assumed. NAK with where we are;
                        // the primary resyncs us from a snapshot.
                        Err(actual) => {
                            counters.naks_sent.fetch_add(1, Ordering::Relaxed);
                            (actual, true)
                        }
                    }
                };
                drop(role);
                // Replica-side durable WAL: what was just applied is
                // durable before its ACK goes out, so a promoted replica
                // serves a store no weaker than the history it acked.
                let wal = state.wal().filter(|_| !nak);
                // A snapshot bypasses the record stream, so the log holds
                // no journal of it: a checkpoint makes the shard durable.
                // Older records left in the active segment carry seqs at or
                // below the snapshot's version, so recovery skips them
                // against the image.
                if snap && wal.is_some_and(|wal| checkpoint(state, wal, &self.engine).is_err()) {
                    return self.fail(now);
                }
                // A batch's records are journalled one by one; its ACK
                // waits for the last.
                let staged = (prev + 1..).zip(&records).map(|(seq, r)| Staged {
                    shard,
                    seq,
                    kind: match r.kind {
                        REPL_KIND_PUT => WalKind::Put,
                        REPL_KIND_DEL => WalKind::Del,
                        _ => WalKind::PutVal, // decode_response rejected others
                    },
                    key: r.key,
                    value: r.value,
                    exp: r.exp,
                });
                let wal = wal.filter(|_| !snap);
                let ticket = wal.and_then(|wal| staged.map(|rec| wal.stage(rec)).last());
                let ack = ReplRequest::Ack {
                    shard,
                    version,
                    nak,
                };
                self.parked.push_back((ack, ticket));
            }
            // The node dialled is a replica itself: follow its hint (the
            // step dials it, seeing the role's upstream moved).
            Response::NotPrimary { hint }
                if !hint.is_empty()
                    && hint != self.upstream
                    && state.role().repoint(hint).is_ok() =>
            {
                self.phase = Phase::Backoff(now);
            }
            _ => self.fail(now),
        }
    }

    /// Hands out, in order, every parked ACK whose ticket is durable. A
    /// dead log fails the session: acking a record it could not make
    /// durable would be a lie, so the primary resyncs or fences us.
    fn release(&mut self, now: Instant) {
        let state = self.state;
        while let Some((ack, ticket)) = self.parked.pop_front() {
            let settled = ticket.zip(state.wal()).map(|(ticket, wal)| {
                state.wakeups.await_wal(state.wakeups.sink());
                wal.durable_state(ticket)
            });
            match settled {
                Some(DurableState::Pending) => return self.parked.push_front((ack, ticket)),
                Some(DurableState::Failed) => return self.fail(now),
                _ => encode_request_v2(&Request::Repl(ack), None, &mut self.out),
            }
        }
    }

    /// The detector fired: the session ends and a candidacy opens
    /// ([`Role::stand`]) with this node's own vote, and every peer is asked
    /// at once. With no peers that vote is a majority and wins at once:
    /// the documented single-replica caveat.
    fn suspect(&mut self, now: Instant) {
        let (state, counters) = (self.state, &self.state.replica_stats);
        counters.suspicions.fetch_add(1, Ordering::Relaxed);
        let mut role = state.role();
        let Some(epoch) = role.stand() else {
            return self.lose(now); // a peer's candidacy has this vote
        };
        counters.elections.fetch_add(1, Ordering::Relaxed);
        let versions = state.store.versions(&self.engine);
        let candidate = Request::Repl(ReplRequest::Candidate { epoch, versions });
        self.dial = Some(Dial::Vote(role.peers.clone(), candidate));
        let canvass = Canvass {
            epoch,
            short: role.majority(),
            left: role.peers.len() + 1,
            until: now + CANVASS,
        };
        drop(role);
        self.count(now, canvass, Some((true, epoch)));
    }

    /// Counts a vote in `canvass`. A majority promotes this node, which
    /// then tells the peers; a peer in a later epoch, or too few votes
    /// left to make a majority, loses it. Only a grant in the canvass's
    /// own epoch counts: each node votes once per epoch, and one it cast
    /// in another is no vote in this one.
    fn count(&mut self, now: Instant, mut canvass: Canvass, vote: Option<(bool, u64)>) {
        match vote {
            Some((true, epoch)) if epoch == canvass.epoch => canvass.short -= 1,
            // Adopt the later epoch and stand down, so the next candidacy
            // stands above it.
            Some((false, known)) if known > canvass.epoch => {
                self.state.role().observe(known);
                return self.lose(now);
            }
            _ => {}
        }
        canvass.left -= 1;
        self.phase = Phase::Canvass(canvass);
        if canvass.short == 0 {
            self.win(now, canvass.epoch);
        } else if canvass.left < canvass.short {
            self.lose(now);
        }
    }

    /// A majority in `epoch`: promote, unless the node has voted in a
    /// later epoch meanwhile (the candidacy is void), and tell the peers.
    /// Best effort: a peer that misses the announce still learns the epoch
    /// from the next welcome or batch it sees.
    fn win(&mut self, now: Instant, epoch: u64) {
        if !self.state.promote(&self.engine, |role| role.win(epoch)) {
            return self.lose(now);
        }
        let role = self.state.role();
        let (peers, primary) = (role.peers.clone(), role.advertised.clone());
        self.dial = Some(Dial::Announce(peers, epoch, primary));
        self.phase = Phase::Stopped;
    }

    /// The candidacy is lost or void: back to the upstream after a
    /// backoff, and a fresh full window before the next suspicion (a new
    /// primary may be announcing itself right now).
    fn lose(&mut self, now: Instant) {
        self.silent_since = now;
        self.backoff(now);
    }
}

/// The replica's sink thread, and the one driver of its [`Sink`]: the only
/// code here that reads the clock. It owns the upstream's socket and a
/// non-blocking pipe to each peer the live canvass asked, and waits in
/// `idle::wait` on them and the sink's waker (shutdown, promotion, a new
/// upstream and a settled WAL ticket wake it) until the sink's deadline.
/// Each pass steps the sink on one read of the upstream and every answer
/// in, then on what each step's writes and dials came to, until nothing
/// is left; a blocking dial moves the pass's instant on to its end. Exits
/// when the sink stops.
pub(crate) fn replica_loop(state: &Arc<ServerState>) {
    let plan = &state.config.repl_fault_plan;
    let mut sink = Sink::new(state, Instant::now());
    let mut upstream: Option<FaultyStream<TcpStream>> = None;
    let mut peers: Vec<Pipe<FaultyStream<TcpStream>>> = Vec::new();
    let (mut set, mut buf) = (idle::PollSet::default(), vec![0u8; 16 * 1024]);
    loop {
        let mut now = Instant::now();
        let read = match upstream.as_mut().map(|stream| stream.read(&mut buf)) {
            Some(Ok(n)) if n > 0 => Input::Bytes(&buf[..n]),
            // Woken with nothing to read: the waker, the deadline, or an
            // injected stall.
            Some(Err(e)) if e.kind() == io::ErrorKind::WouldBlock => Input::Tick,
            Some(Err(e)) if e.kind() == io::ErrorKind::Interrupted => Input::Tick,
            // End of file, or a reset.
            Some(_) => Input::Closed,
            None => Input::Tick,
        };
        let mut inputs = VecDeque::from([read]);
        // Each answer closes its pipe: a vote, or `None` for a peer that
        // failed or answered with no vote.
        peers.retain_mut(|pipe| {
            let vote = match pipe.pump().and_then(|_| pipe.answer()) {
                Ok(None) => return true,
                Ok(Some((_, Response::ReplVote { granted, epoch }))) => Some((granted, epoch)),
                _ => None,
            };
            inputs.push_back(Input::Vote(vote));
            false
        });
        let mut until = None;
        while let Some(input) = inputs.pop_front() {
            let step = sink.step(now, input);
            // A session keeps the upstream's socket, a canvass the peers'
            // pipes and the answers queued from them: no answer outlives its
            // canvass, even when a dial moved the instant on and a new one
            // opens in this pass.
            if step.phase != Phase::Session {
                upstream = None;
            }
            if !matches!(step.phase, Phase::Canvass(_)) {
                peers.clear();
                inputs.retain(|input| !matches!(input, Input::Vote(_)));
            }
            // An ACK that finds the send buffer full means the upstream has
            // stopped reading: that ends the session like a reset.
            let session = upstream.as_mut();
            if session.is_some_and(|stream| write_frame(stream, &step.frames).is_err()) {
                inputs.push_back(Input::Closed);
            }
            match step.dial {
                Some(Dial::Upstream(addr)) => {
                    // The dial blocks: its outcome is news as of its end.
                    let stream = dial(&addr, Duration::from_millis(500));
                    now = Instant::now();
                    inputs.push_back(stream.as_ref().map_or(Input::Closed, |_| Input::Connected));
                    upstream = stream.map(|s| FaultyStream::maybe(s, plan.clone()));
                }
                Some(Dial::Vote(addrs, candidate)) => {
                    peers = ask(&addrs, &candidate, plan);
                    inputs.extend((peers.len()..addrs.len()).map(|_| Input::Vote(None)));
                }
                // Not faulted: it is how the losers learn where the winner is.
                Some(Dial::Announce(addrs, epoch, primary)) => {
                    let primary = primary.as_bytes();
                    let announce = Request::Repl(ReplRequest::EpochAnnounce { epoch, primary });
                    ask(&addrs, &announce, &None);
                }
                None => {}
            }
            if step.phase == Phase::Stopped {
                return;
            }
            until = step.until;
        }
        set.clear();
        if let Some(stream) = &upstream {
            set.push(stream.get_ref().as_raw_fd(), idle::POLLIN);
        }
        for pipe in &peers {
            let out = if pipe.unsent() { idle::POLLOUT } else { 0 };
            set.push(pipe.get_ref().get_ref().as_raw_fd(), idle::POLLIN | out);
        }
        let timeout = until.map(|until| until.saturating_duration_since(Instant::now()));
        idle::wait(state.wakeups.replica_sink(), &mut set, timeout);
    }
}

/// A pipe to each of `peers` that could be dialled, with `req` sent on it.
fn ask(
    peers: &[String],
    req: &Request<'_>,
    plan: &Option<Arc<TransportFaultPlan>>,
) -> Vec<Pipe<FaultyStream<TcpStream>>> {
    let pipes = peers.iter().filter_map(|addr| {
        let stream = dial(addr, Duration::from_millis(250))?;
        let mut pipe = Pipe::new(FaultyStream::maybe(stream, plan.clone()));
        pipe.submit(req, None);
        pipe.pump().ok().map(|_| pipe)
    });
    pipes.collect()
}

/// A non-blocking, no-delay connection to `addr`, given `timeout` to open.
fn dial(addr: &str, timeout: Duration) -> Option<TcpStream> {
    let addr = addr.to_socket_addrs().ok()?.next()?;
    let stream = TcpStream::connect_timeout(&addr, timeout).ok()?;
    let _ = stream.set_nodelay(true);
    stream.set_nonblocking(true).ok()?;
    Some(stream)
}

/// Handles one replication verb on this connection.
///
/// Free function: `outbuf`, the subscription slot and the closing flag
/// come in as separate `&mut`s from the connection `conn` destructured,
/// so they stay disjoint from the input buffer `req` borrows.
pub(crate) fn handle_repl_frame(
    engine: &Engine<'_>,
    state: &ServerState,
    wctx: &mut WorkerCtx,
    outbuf: &mut Vec<u8>,
    repl: &mut Option<ReplSub>,
    closing: &mut bool,
    req: ReplRequest<'_>,
) {
    match req {
        ReplRequest::Hello { versions } => {
            // A replica cannot feed other replicas (no chaining in this
            // topology) — redirect the subscriber at the primary.
            if state.is_replica() {
                let hint = state.upstream_hint();
                encode_response(&Response::NotPrimary { hint: &hint }, outbuf);
                return;
            }
            let Some(feed) = state.repl_feed() else {
                encode_error("replication not enabled (start with --repl-accept)", outbuf);
                *closing = true;
                return;
            };
            // A second HELLO on the same connection replaces the old
            // subscription (a replica restarting its session).
            match repl.take() {
                Some(old) => feed.unsubscribe(old.id),
                None => state.wakeups.own_stream(wctx.worker, true),
            }
            let id = feed.subscribe(&versions, wctx.now);
            *repl = Some(ReplSub::new(id, wctx.now));
            encode_response(
                &Response::ReplWelcome {
                    shards: state.store.shards() as u32,
                    epoch: state.epoch(),
                },
                outbuf,
            );
        }
        ReplRequest::Ack {
            shard,
            version,
            nak,
        } => {
            // Acks are one-way: no response rides back. A NAK flags the
            // shard for snapshot resync inside the feed.
            if let (Some(sub), Some(feed)) = (repl.as_ref(), state.repl_feed()) {
                feed.note_ack(sub.id, shard, version, nak, wctx.now);
                // It may settle an answer another worker parked, or one
                // of this worker's, which takes its next pass at once.
                if !nak && feed.config().min_acks > 0 {
                    state.wakeups.wake_workers_but(wctx.worker);
                    wctx.own_wake = true;
                }
            }
        }
        ReplRequest::Candidate { epoch, versions } => {
            // A vote request from a peer replica standing for election.
            let own: u64 = state.store.versions(engine).iter().sum();
            let mut role = state.role();
            let granted = role.grant(epoch, versions.iter().sum(), own);
            let epoch = role.known_epoch();
            drop(role);
            encode_response(&Response::ReplVote { granted, epoch }, outbuf);
        }
        ReplRequest::EpochAnnounce { epoch, primary } => {
            // The election winner telling us where the new primary lives.
            // A deposed primary refuses it and stays fenced (DESIGN §16.2).
            let announced = match std::str::from_utf8(primary) {
                Ok(addr) => state.role().announce(epoch, addr),
                Err(_) => Err("primary address is not valid UTF-8"),
            };
            encode_done(state, announced, outbuf);
        }
        ReplRequest::Promote { upstream } => {
            // Empty: become primary, in an epoch of its own; idempotent.
            // Otherwise repoint at a new primary.
            let done = match std::str::from_utf8(upstream) {
                Ok("") => {
                    state.promote(engine, Role::promote);
                    Ok(())
                }
                Ok(addr) => state.role().repoint(addr),
                Err(_) => Err("upstream address is not valid UTF-8"),
            };
            encode_done(state, done, outbuf);
        }
    }
}

/// `Done` for a role change the node took — and a wake for the sink, whose
/// upstream it may have moved — or the error that refused it.
fn encode_done(state: &ServerState, done: Result<(), &str>, outbuf: &mut Vec<u8>) {
    match done {
        Ok(()) => {
            state.wakeups.replica_sink().wake();
            encode_response(&Response::Done, outbuf);
        }
        Err(why) => encode_error(why, outbuf),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Mode, ServerConfig};
    use gocc_repl::suspect_jitter;
    use gocc_wal::{SyncPolicy, WalConfig};

    /// Two candidacies closer together than this are one collision: both
    /// nodes have voted for themselves before either hears from the other.
    /// It is also how long a message takes between two nodes here.
    const COLLISION_GAP: Duration = Duration::from_millis(2);
    const BASE: Duration = Duration::from_millis(200);
    /// The other orphan and the dead primary, as the peer lists name them:
    /// the tests carry every message by hand.
    const OTHER: &str = "the other orphan";
    const DEAD: &str = "the dead primary";

    /// Two seeds whose staggers put them in epoch 1 together.
    fn colliding_seeds() -> (u64, u64) {
        let first = suspect_jitter(1, 1, BASE);
        let other = (2..100_000u64)
            .find(|&s| suspect_jitter(s, 1, BASE).abs_diff(first) < COLLISION_GAP)
            .expect("some seed draws within 2 ms of seed 1 in epoch 1");
        (1, other)
    }

    /// Two nodes spawned from one config stand apart: the bound port is
    /// mixed into each one's seed, so their suspect windows for the same
    /// epoch differ.
    #[test]
    fn nodes_spawned_from_one_config_draw_their_own_stagger() {
        let config = ServerConfig {
            workers: 1,
            shards: 1,
            capacity_per_shard: 16,
            ..ServerConfig::default()
        };
        let nodes = [0, 1].map(|_| crate::spawn(config.clone()).expect("spawn node"));
        let [a, b] = nodes.each_ref().map(|n| {
            let state = n.state();
            state.role().suspect_window(state.config.repl_seed, BASE)
        });
        for node in nodes {
            node.request_shutdown();
            let _ = node.join();
        }
        assert_ne!(a, b, "one config, one stagger");
    }

    /// Two replicas of a primary that is gone, with no threads: each has
    /// the other and the dead address as its electorate, and its sink
    /// stands on its own once the primary has been silent a window.
    fn two_orphans(seeds: (u64, u64)) -> [ServerState; 2] {
        [seeds.0, seeds.1].map(|seed| {
            ServerState::new(ServerConfig {
                mode: Mode::Gocc,
                workers: 1,
                shards: 2,
                capacity_per_shard: 256,
                replica_of: Some(DEAD.to_string()),
                repl_seed: seed,
                repl_suspect: BASE,
                repl_auto_promote: true,
                repl_peers: vec![OTHER.to_string(), DEAD.to_string()],
                ..ServerConfig::default()
            })
            .expect("replica state")
        })
    }

    /// Steps `sink` from `*t` against its dead upstream (every dial fails)
    /// until it asks its peers for their votes: the candidacy's epoch and
    /// versions, with `*t` the instant it stood.
    fn candidacy(sink: &mut Sink<'_>, t: &mut Instant) -> (u64, Vec<u64>) {
        let mut step = sink.step(*t, Input::Tick);
        loop {
            assert_ne!(step.phase, Phase::Stopped, "the sink stopped");
            step = match step.dial {
                Some(Dial::Upstream(_)) => sink.step(*t, Input::Closed),
                Some(Dial::Vote(_, Request::Repl(ReplRequest::Candidate { epoch, versions }))) => {
                    return (epoch, versions)
                }
                _ => {
                    *t = step.until.expect("a deadline while the upstream is dead");
                    sink.step(*t, Input::Tick)
                }
            };
        }
    }

    /// `voter`'s answer to a candidacy in `epoch` with `versions`, from its
    /// `REPL_CANDIDATE` handler, as its worker gives it.
    fn vote(voter: &ServerState, epoch: u64, versions: Vec<u64>) -> Option<(bool, u64)> {
        let mut out = Vec::new();
        handle(voter, &mut out, ReplRequest::Candidate { epoch, versions });
        match decode_response(&out[4..]).expect("one response frame") {
            Response::ReplVote { granted, epoch } => Some((granted, epoch)),
            other => panic!("{other:?} is no vote"),
        }
    }

    /// Runs `req` through `state`'s replication handler into `out`.
    fn handle(state: &ServerState, out: &mut Vec<u8>, req: ReplRequest<'_>) {
        let engine = Engine::new(&state.rt, state.config.mode);
        let mut wctx = WorkerCtx::new(0, Instant::now());
        handle_repl_frame(&engine, state, &mut wctx, out, &mut None, &mut false, req);
    }

    /// Hands `sink` at `t` its two peers' answers: `other`'s, and the
    /// dead address's absence.
    fn answers(sink: &mut Sink<'_>, t: Instant, other: Option<(bool, u64)>) {
        sink.step(t, Input::Vote(None));
        sink.step(t, Input::Vote(other));
    }

    #[test]
    fn the_stagger_is_drawn_again_in_every_epoch() {
        let (a, b) = colliding_seeds();
        let apart = (2..10u64)
            .filter(|&e| {
                suspect_jitter(a, e, BASE).abs_diff(suspect_jitter(b, e, BASE)) >= COLLISION_GAP
            })
            .count();
        assert!(
            apart >= 6,
            "seeds {a} and {b} stay in step: {apart} of 8 epochs apart"
        );
        for e in 1..64 {
            assert!(suspect_jitter(a, e, BASE) < BASE);
        }
    }

    /// A request or a vote on its way between the two orphans.
    enum Mail {
        Ask(u64, Vec<u64>),
        Vote(Option<(bool, u64)>),
    }

    /// Steps orphan `me` at `t` on `input`, then on each dial it asks for:
    /// the dead upstream refuses, the dead peer is absent at once, and a
    /// candidacy reaches the other orphan `COLLISION_GAP` later. Records
    /// when it stood; returns its next deadline.
    fn drive(
        sink: &mut Sink<'_>,
        me: usize,
        t: Instant,
        input: Input<'_>,
        mail: &mut Vec<(Instant, usize, Mail)>,
        stood: &mut Vec<Instant>,
    ) -> Option<Instant> {
        let mut step = sink.step(t, input);
        loop {
            let input = match step.dial {
                Some(Dial::Upstream(_)) => Input::Closed,
                Some(Dial::Vote(_, Request::Repl(ReplRequest::Candidate { epoch, versions }))) => {
                    stood.push(t);
                    mail.push((t + COLLISION_GAP, 1 - me, Mail::Ask(epoch, versions)));
                    Input::Vote(None)
                }
                _ => return step.until,
            };
            step = sink.step(t, input);
        }
    }

    /// Two replicas of a dead primary whose staggers coincide in the first
    /// epoch, on one virtual clock: both vote for themselves, both are
    /// denied. Every round after that each waits out its window and stands
    /// again; a pair that waits the same windows every time (a stagger
    /// that is a constant per node) never elects anyone, nor does a loser
    /// that asks again for the votes of the epoch it lost.
    #[test]
    fn a_collided_election_resolves_within_a_few_rounds() {
        let nodes = two_orphans(colliding_seeds());
        let t0 = Instant::now();
        let mut sinks = [Sink::new(&nodes[0], t0), Sink::new(&nodes[1], t0)];
        let mut due = [Some(t0); 2];
        let mut mail: Vec<(Instant, usize, Mail)> = Vec::new();
        let mut stood = Vec::new();
        // A round is a candidacy, or two that collide.
        let rounds = |stood: &[Instant]| {
            1 + stood
                .windows(2)
                .filter(|w| w[1] - w[0] >= COLLISION_GAP)
                .count()
        };
        while nodes.iter().all(ServerState::is_replica) {
            let post = (0..mail.len()).min_by_key(|&k| mail[k].0);
            let tick = (0..2).filter_map(|i| Some((due[i]?, i))).min();
            match (post, tick) {
                (Some(k), tick) if tick.is_none_or(|(t, _)| mail[k].0 <= t) => {
                    let (t, to, what) = mail.swap_remove(k);
                    match what {
                        Mail::Ask(epoch, versions) => {
                            let vote = vote(&nodes[to], epoch, versions);
                            mail.push((t + COLLISION_GAP, 1 - to, Mail::Vote(vote)));
                        }
                        Mail::Vote(vote) => {
                            due[to] = drive(
                                &mut sinks[to],
                                to,
                                t,
                                Input::Vote(vote),
                                &mut mail,
                                &mut stood,
                            );
                        }
                    }
                }
                (_, Some((t, i))) => {
                    due[i] = drive(&mut sinks[i], i, t, Input::Tick, &mut mail, &mut stood);
                }
                _ => panic!("nothing is left to happen and nobody won"),
            }
            assert!(
                rounds(&stood) <= 8,
                "no winner in 8 rounds ({} candidacies)",
                stood.len()
            );
        }
        assert!(
            stood.len() >= 2 && stood[1] - stood[0] < COLLISION_GAP,
            "the seeds were chosen to collide first"
        );
        assert!(
            nodes[0].is_replica() != nodes[1].is_replica(),
            "exactly one winner"
        );
        let winner = nodes.iter().find(|n| !n.is_replica()).expect("a winner");
        assert!(
            winner.epoch() >= 2,
            "the winning epoch is past the collided one"
        );
    }

    /// A candidate whose worker grants a later epoch's vote while its own
    /// candidacy is still canvassing must not promote on the majority it
    /// then reaches: the vote it gave may be the one that elects the other
    /// candidate, and both would be primaries, one epoch apart.
    #[test]
    fn a_candidacy_is_void_once_the_node_votes_in_a_later_epoch() {
        let [a, b] = two_orphans((1, 2));
        let t0 = Instant::now();
        let (mut sink_a, mut sink_b) = (Sink::new(&a, t0), Sink::new(&b, t0));
        let (mut ta, mut tb) = (t0, t0);
        let (epoch, versions) = candidacy(&mut sink_a, &mut ta);
        // The peer grants it; the vote is on its way back when the peer
        // stands in the epoch above and `a`'s worker grants that.
        let granted = vote(&b, epoch, versions);
        assert_eq!(granted, Some((true, epoch)));
        let (later, versions) = candidacy(&mut sink_b, &mut tb);
        assert_eq!(later, epoch + 1);
        let a_grants = vote(&a, later, versions);
        assert_eq!(a_grants, Some((true, later)));
        answers(&mut sink_a, ta, granted);
        assert!(a.is_replica(), "promoted on a void candidacy");
        // The peer it voted for is elected by that vote, and as a primary
        // grants nothing afterwards.
        answers(&mut sink_b, tb, a_grants);
        assert!(!b.is_replica(), "the later candidacy lost");
        assert_eq!(
            vote(&b, later + 4, vec![0, 0]),
            Some((false, later)),
            "a primary votes nobody in"
        );
    }

    /// A grant cast in an earlier epoch is no vote in this one: each node
    /// votes once per epoch, so a grant from an answer that outlived its
    /// canvass, counted in the next, could give two candidates one epoch's
    /// majority.
    #[test]
    fn a_grant_from_an_earlier_epoch_is_no_vote() {
        let [a, _] = two_orphans((1, 2));
        let mut t = Instant::now();
        let mut sink = Sink::new(&a, t);
        let (first, _) = candidacy(&mut sink, &mut t);
        t += CANVASS;
        sink.step(t, Input::Tick);
        let (later, _) = candidacy(&mut sink, &mut t);
        assert_eq!(later, first + 1);
        let step = sink.step(t, Input::Vote(Some((true, first))));
        assert!(a.is_replica(), "promoted on a grant from epoch {first}");
        assert!(matches!(step.phase, Phase::Canvass(_)), "{:?}", step.phase);
    }

    /// A manual `REPL_PROMOTE` stands in an epoch of its own. A node that
    /// stood in epoch e and did not win it may not take e by promotion:
    /// a peer may hold e's majority, and both would be primaries in e.
    #[test]
    fn a_manual_promotion_stands_above_the_nodes_own_candidacy() {
        let [a, _] = two_orphans((1, 2));
        let mut t = Instant::now();
        let (epoch, _) = candidacy(&mut Sink::new(&a, t), &mut t);
        handle(&a, &mut Vec::new(), ReplRequest::Promote { upstream: b"" });
        assert!(!a.is_replica(), "the promotion took");
        assert!(
            a.epoch() > epoch,
            "promoted in epoch {}, the one it stood in",
            a.epoch()
        );
    }

    /// A candidate denied by a peer that has voted in a later epoch learns
    /// that epoch from the reply and stands above it next time. Without
    /// that, a peer that stands more often than the candidate (one behind
    /// in history, so it never wins) keeps its vote ahead of every
    /// candidacy it is asked for, and nobody is elected.
    #[test]
    fn a_denied_candidate_stands_above_the_peers_last_vote() {
        let [a, b] = two_orphans((1, 2));
        let t0 = Instant::now();
        let (mut sink_a, mut sink_b) = (Sink::new(&a, t0), Sink::new(&b, t0));
        let (mut ta, mut tb) = (t0, t0);
        // The peer's own candidacies in epochs 1 and 2, answered by nobody.
        for want in [1, 2] {
            assert_eq!(candidacy(&mut sink_b, &mut tb).0, want);
            tb += CANVASS;
            sink_b.step(tb, Input::Tick);
        }
        let (epoch, versions) = candidacy(&mut sink_a, &mut ta);
        answers(&mut sink_a, ta, vote(&b, epoch, versions));
        assert!(a.is_replica(), "epoch 1 is spent at the peer");
        let (epoch, versions) = candidacy(&mut sink_a, &mut ta);
        answers(&mut sink_a, ta, vote(&b, epoch, versions));
        assert!(
            !a.is_replica() && b.is_replica(),
            "the next candidacy ({epoch}) stands above the peer's vote"
        );
    }

    /// Two survivors that differ in history: the one behind cannot win,
    /// yet it stands whenever its window ends first. The one ahead denies
    /// it but spends that epoch, so its own next candidacy stands above
    /// the peer's vote and wins, however often the peer stood first.
    #[test]
    fn a_peer_behind_in_history_does_not_keep_the_one_ahead_from_winning() {
        let [a, b] = two_orphans((1, 2));
        let engine_a = Engine::new(&a.rt, a.config.mode);
        let record = ReplRecord {
            kind: REPL_KIND_PUT,
            key: 7,
            value: 7,
            exp: 0,
        };
        assert_eq!(
            a.store.apply_repl_batch(&engine_a, 0, 0, 0, &[record]),
            Ok(1)
        );
        let t0 = Instant::now();
        let (mut sink_a, mut sink_b) = (Sink::new(&a, t0), Sink::new(&b, t0));
        let (mut ta, mut tb) = (t0, t0);
        for _ in 0..3 {
            let (epoch, versions) = candidacy(&mut sink_b, &mut tb);
            answers(&mut sink_b, tb, vote(&a, epoch, versions));
            assert!(b.is_replica(), "the peer behind won");
        }
        let (epoch, versions) = candidacy(&mut sink_a, &mut ta);
        answers(&mut sink_a, ta, vote(&b, epoch, versions));
        assert!(!a.is_replica(), "the node ahead lost");
    }

    /// Replica state with auto-promotion, upstream `primary:1`, no threads.
    fn replica(wal: Option<(&std::path::Path, WalConfig)>) -> ServerState {
        ServerState::new(ServerConfig {
            workers: 1,
            replica_of: Some("primary:1".to_string()),
            repl_auto_promote: true,
            repl_suspect: BASE,
            data_dir: wal.as_ref().map(|(dir, _)| dir.to_path_buf()),
            wal: wal.map(|(_, config)| config).unwrap_or_default(),
            ..ServerConfig::default()
        })
        .expect("replica state")
    }

    /// Dials `sink` at `t0` and has the dial connect at `t`: its HELLO.
    fn connect(sink: &mut Sink<'_>, t0: Instant, t: Instant) -> Vec<u8> {
        let step = sink.step(t0, Input::Tick);
        assert!(matches!(step.dial, Some(Dial::Upstream(ref a)) if a == "primary:1"));
        let step = sink.step(t, Input::Connected);
        assert_eq!(step.phase, Phase::Session);
        step.frames
    }

    /// A primary's frame: its welcome, or a batch on shard 0 at version
    /// `prev` with `records` puts.
    fn frame(resp: &Response<'_>) -> Vec<u8> {
        let mut out = Vec::new();
        encode_response(resp, &mut out);
        out
    }

    fn welcome(shards: usize) -> Vec<u8> {
        frame(&Response::ReplWelcome {
            shards: shards as u32,
            epoch: 0,
        })
    }

    fn batch(prev: u64, records: u64) -> Vec<u8> {
        frame(&Response::ReplBatch {
            shard: 0,
            flags: 0,
            prev_version: prev,
            now: 0,
            epoch: 0,
            records: (0..records)
                .map(|k| ReplRecord {
                    kind: REPL_KIND_PUT,
                    key: k,
                    value: k,
                    exp: 0,
                })
                .collect(),
        })
    }

    /// The ACKs in `frames`, as `(shard, version)`.
    fn acks(mut frames: &[u8]) -> Vec<(u32, u64)> {
        let mut acks = Vec::new();
        while !frames.is_empty() {
            let len = u32::from_le_bytes(frames[..4].try_into().expect("header")) as usize;
            match gocc_wire::decode_request_any(&frames[4..4 + len])
                .expect("a request")
                .req
            {
                Request::Repl(ReplRequest::Ack {
                    shard,
                    version,
                    nak: false,
                }) => {
                    acks.push((shard, version));
                }
                other => panic!("{other:?} is no ACK"),
            }
            frames = &frames[4 + len..];
        }
        acks
    }

    /// A replica that has heard nothing for longer than its suspect window
    /// opens a session to a live primary, as it does when a dial takes
    /// long: it waits for the welcome and the heartbeats behind it, and
    /// does not suspect the new upstream for the old one's silence.
    #[test]
    fn a_new_session_is_not_suspected_for_the_old_upstreams_silence() {
        let state = replica(None);
        let t0 = Instant::now();
        let mut sink = Sink::new(&state, t0);
        let mut t = t0 + 10 * BASE;
        connect(&mut sink, t0, t);
        let beat = state.config.repl_lease / 4;
        t += beat;
        assert_eq!(
            sink.step(t, Input::Bytes(&welcome(4))).phase,
            Phase::Session
        );
        for _ in 0..4 {
            t += beat;
            let step = sink.step(t, Input::Bytes(&batch(0, 0)));
            assert_eq!(
                step.phase,
                Phase::Session,
                "the session ended at {:?}",
                t - t0
            );
            assert_eq!(acks(&step.frames), [(0, 0)]);
        }
        assert_eq!(state.repl_suspicions(), 0);
    }

    /// The upstream keeps sending heartbeats while the WAL ticket of the
    /// batch before them stays unsettled for longer than the window: the
    /// sink reads on and suspects nothing, and every ACK goes out, in
    /// order, once the ticket settles.
    #[test]
    fn a_slow_log_is_not_silence() {
        let dir = std::env::temp_dir().join(format!("gocc-slow-log-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // Group commit that lingers a minute for a fuller batch: only a
        // FLUSH makes the record durable sooner.
        let lingering = WalConfig {
            sync: SyncPolicy::Group,
            fsync_batch_size: 1 << 20,
            fsync_wait_us: 60_000_000,
            ..WalConfig::default()
        };
        let state = replica(Some((&dir, lingering)));
        let t0 = Instant::now();
        let mut sink = Sink::new(&state, t0);
        connect(&mut sink, t0, t0);
        let mut t = t0;
        assert!(sink.step(t, Input::Bytes(&welcome(4))).frames.is_empty());
        assert!(sink.step(t, Input::Bytes(&batch(0, 3))).frames.is_empty());
        let window = state.role().suspect_window(state.config.repl_seed, BASE);
        let beat = state.config.repl_lease / 4;
        let mut beats = 0;
        while t - t0 < 3 * window {
            t += beat;
            beats += 1;
            let step = sink.step(t, Input::Bytes(&batch(3, 0)));
            assert_eq!(
                step.phase,
                Phase::Session,
                "the session ended at {:?}",
                t - t0
            );
            assert!(
                step.frames.is_empty(),
                "an ACK went out before its record was durable"
            );
        }
        assert_eq!(state.repl_suspicions(), 0, "a slow log read as silence");
        state.wal().expect("wal").request_flush();
        let settled = Instant::now();
        let frames = loop {
            let step = sink.step(t, Input::Tick);
            if !step.frames.is_empty() {
                break step.frames;
            }
            assert!(
                settled.elapsed() < Duration::from_secs(10),
                "the flush never settled"
            );
            std::thread::yield_now();
        };
        let mut want = vec![(0, 3)];
        want.extend(std::iter::repeat_n((0, 3), beats));
        assert_eq!(acks(&frames), want);
        state.wal().expect("wal").shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// With the upstream refusing every dial, each replica stands exactly
    /// when its own window ends, however the reconnect backoff falls:
    /// their candidacies are as far apart as their staggers.
    #[test]
    fn dial_failures_suspect_on_time() {
        let nodes = two_orphans((1, 2));
        let t0 = Instant::now();
        let stood = nodes.each_ref().map(|node| {
            let mut t = t0;
            candidacy(&mut Sink::new(node, t0), &mut t);
            assert!(node.replica_stats.reconnects.load(Ordering::Relaxed) >= 3);
            t - t0
        });
        let stagger = [1, 2].map(|seed| suspect_jitter(seed, 1, BASE));
        assert_eq!(stood, stagger.map(|s| BASE + s));
        assert_eq!(stood[0].abs_diff(stood[1]), stagger[0].abs_diff(stagger[1]));
    }
}
