//! Server-side replication wiring: the primary's per-subscriber stream
//! pump and the replica's upstream sink loop.
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
//! * This module owns the *I/O*: [`pump_repl_out`] runs inside a
//!   subscriber connection's pump quantum, on the worker that accepted it
//!   (no worker blocks on a replica; it is woken when the feed takes
//!   records and at the next heartbeat), and turns feed state into
//!   `REPL_BATCH` frames: snapshot chunks for resyncing shards,
//!   incremental batches for streaming ones, count-0 heartbeats to keep
//!   the lease audited; [`handle_repl_frame`] answers the replication
//!   verbs a connection receives (HELLO, ACK, the election's CANDIDATE
//!   and EPOCH_ANNOUNCE, PROMOTE); [`replica_loop`] is the replica's
//!   dedicated thread that dials the upstream primary, applies what
//!   arrives, and answers version-checked ACKs/NAKs.

use std::io::{self, Read};
use std::net::{TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, MutexGuard};
use std::time::{Duration, Instant};

use gocc_repl::{resync_backoff, Admit, ReplFeed, Role, SnapshotAssembler, SubId};
use gocc_telemetry::{trace, JsonWriter, Span, SpanKind};
use gocc_wal::{CheckpointImage, Staged, WalKind};
use gocc_wire::{
    decode_response, encode_request_v2, encode_response, write_frame, FaultyStream, FrameBuf, Pipe,
    ReplRecord, ReplRequest, Request, Response, REPL_FLAG_FIN, REPL_FLAG_RESET, REPL_FLAG_SNAP,
    REPL_KIND_DEL, REPL_KIND_PUT, REPL_KIND_PUTVAL,
};
use gocc_workloads::Engine;

use crate::conn::encode_error;
use crate::{idle, ServerState, WorkerCtx};

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
    /// Next entry index to encode.
    next: usize,
    /// Whether the RESET chunk already went out.
    started: bool,
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
    let mut progressed = false;
    let epoch = state.epoch();

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
                started: false,
            });
        }
        let snap = sub.snap.as_mut().expect("armed above");
        let mut finished = false;
        while outbuf.len() < OUT_HIGH_WATER {
            let end = (snap.next + BATCH_RECORDS).min(snap.entries.len());
            let mut flags = REPL_FLAG_SNAP;
            if !snap.started {
                flags |= REPL_FLAG_RESET;
            }
            if end == snap.entries.len() {
                flags |= REPL_FLAG_FIN;
            }
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
                    flags,
                    prev_version: snap.seq,
                    now: snap.now,
                    epoch,
                    records,
                },
                outbuf,
            );
            snap.started = true;
            snap.next = end;
            progressed = true;
            if flags & REPL_FLAG_FIN != 0 {
                finished = true;
                break;
            }
        }
        if finished {
            let snap = sub.snap.take().expect("streamed above");
            let _ = feed.resync_cut(sub.id, snap.shard, snap.seq);
        }
        // Not finished: paused at the high-water mark, resume next pump.
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
        progressed = true;
    }

    // Heartbeats at a quarter of the lease: an idle stream still acks
    // four times per window, so a healthy-but-quiet replica never gets
    // the primary fenced, and a version drift surfaces as a NAK even
    // with no traffic.
    if now >= sub.next_beat(state.config.repl_lease) {
        for (shard, v) in feed.heartbeat_versions(sub.id).iter().enumerate() {
            if let Some(version) = v {
                encode_response(
                    &Response::ReplBatch {
                        shard: shard as u32,
                        flags: 0,
                        prev_version: *version,
                        now: 0,
                        epoch,
                        records: Vec::new(),
                    },
                    outbuf,
                );
                progressed = true;
            }
        }
        sub.last_beat = now;
    }
    progressed
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
        w.end_array()
            .field_u64(
                "batches_applied",
                self.batches_applied.load(Ordering::Relaxed),
            )
            .field_u64(
                "records_applied",
                self.records_applied.load(Ordering::Relaxed),
            )
            .field_u64("naks_sent", self.naks_sent.load(Ordering::Relaxed))
            .field_u64("snap_resyncs", self.snap_resyncs.load(Ordering::Relaxed))
            .field_u64("reconnects", self.reconnects.load(Ordering::Relaxed))
            .field_u64("suspicions", self.suspicions.load(Ordering::Relaxed))
            .field_u64("elections", self.elections.load(Ordering::Relaxed))
            .field_u64(
                "stale_epoch_rejects",
                self.stale_epoch_rejects.load(Ordering::Relaxed),
            )
            .end_object();
        w.finish()
    }

    /// Times the failure detector declared the primary dead.
    pub(crate) fn suspicions(&self) -> u64 {
        self.suspicions.load(Ordering::Relaxed)
    }
}

/// How one upstream session ended.
#[derive(Debug)]
enum SessionEnd {
    /// Shutdown or promotion observed — the loop exits.
    Stop,
    /// The upstream changed (Promote repoint or NotPrimary hint) —
    /// reconnect immediately, fresh backoff.
    Repointed,
    /// Connection or protocol failure — reconnect with backoff.
    Failed,
    /// The failure detector fired mid-session: the upstream is connected
    /// but silent past the suspicion timeout.
    Suspect,
}

/// [`Role::suspect_window`], for this node's seed and `repl_suspect`.
fn suspect_window(state: &ServerState) -> Duration {
    state
        .role()
        .suspect_window(state.config.repl_seed, state.config.repl_suspect)
}

/// The replica's sink thread: dial the upstream, announce our versions,
/// apply what arrives, ack (or NAK) every batch, and reconnect with
/// bounded seeded backoff when the stream dies. Exits on shutdown or
/// once a promotion (manual or election-won) makes this node the primary.
///
/// With `repl_auto_promote`, this thread is also the failure detector's
/// consumer: a mid-session silence (`SessionEnd::Suspect`) or a dead
/// upstream (consecutive dial failures past the same suspicion window)
/// triggers a quorum election via [`run_election`].
pub(crate) fn replica_loop(state: &Arc<ServerState>) {
    let engine = Engine::new(&state.rt, state.config.mode);
    // Never filled: the backoff waits on the sink's waker alone.
    let mut set = idle::PollSet::default();
    let mut attempt: u32 = 0;
    // Last moment the upstream proved alive (any frame received). Dial
    // failures alone must not instantly trigger an election — the window
    // below turns "can't reach it" into "dead" only after the suspicion
    // timeout, same bar as the in-session detector.
    let mut last_contact = Instant::now();
    while !state.shutting_down() && state.is_replica() {
        let suspected = match run_session(state, &engine, &mut last_contact) {
            SessionEnd::Stop => return,
            SessionEnd::Repointed => {
                attempt = 0;
                false
            }
            SessionEnd::Failed => {
                attempt = attempt.saturating_add(1);
                state
                    .replica_stats
                    .reconnects
                    .fetch_add(1, Ordering::Relaxed);
                last_contact.elapsed() >= suspect_window(state)
            }
            SessionEnd::Suspect => true,
        };
        if suspected && state.config.repl_auto_promote {
            state
                .replica_stats
                .suspicions
                .fetch_add(1, Ordering::Relaxed);
            if run_election(state, &engine) {
                // Won: this node is the primary now; the sink exits.
                return;
            }
            // Lost or aborted: reset the contact clock so the next
            // suspicion needs a fresh full window (a new primary may be
            // announcing itself right now).
            last_contact = Instant::now();
        }
        let wait = resync_backoff(
            state.config.repl_seed,
            1,
            attempt,
            Duration::from_millis(10),
            Duration::from_millis(500),
        );
        // Shutdown, promotion and a new upstream wake the sink's waker.
        if !state.shutting_down() && state.is_replica() {
            idle::wait(state.wakeups.replica_sink(), &mut set, Some(wait));
        }
    }
}

/// One quorum election round: this node's own vote, then each peer's
/// under [`Role::grant`]'s rule. Returns true when this node won and
/// promoted itself. With no configured peers the electorate is this node
/// alone and it self-promotes: the documented single-replica caveat (no
/// quorum exists to protect against a partitioned false positive).
fn run_election(state: &Arc<ServerState>, engine: &Engine<'_>) -> bool {
    let Some(epoch) = stand(state) else {
        return false; // a peer's candidacy took our vote meanwhile
    };
    canvass(state, engine, epoch)
}

/// Opens a candidacy ([`Role::stand`]) and counts it.
fn stand(state: &ServerState) -> Option<u64> {
    let epoch = state.role().stand()?;
    state
        .replica_stats
        .elections
        .fetch_add(1, Ordering::Relaxed);
    Some(epoch)
}

/// The rest of a candidacy opened by [`stand`]: asks every peer for its
/// vote in `epoch` and promotes this node on a majority.
fn canvass(state: &Arc<ServerState>, engine: &Engine<'_>, epoch: u64) -> bool {
    let versions = state.store.versions(engine);
    let candidate = Request::Repl(ReplRequest::Candidate { epoch, versions });
    let (peers, majority) = {
        let role = state.role();
        (role.peers.clone(), role.majority())
    };
    let mut votes = 1usize; // self
    for peer in &peers {
        if state.shutting_down() || !state.is_replica() {
            return false;
        }
        match request_vote(state, peer, &candidate) {
            Some((true, _)) => votes += 1,
            // A peer has seen or voted in a later epoch: adopt it and
            // stand down, so the next candidacy stands above it.
            Some((false, known)) if known > epoch => {
                state.role().observe(known);
                return false;
            }
            _ => {}
        }
        if votes >= majority {
            break;
        }
    }
    if votes < majority {
        return false;
    }
    if !state.promote(engine, |role| role.win(epoch)) {
        return false; // voted in a later epoch while canvassing this one
    }
    // Tell the losers where the new primary lives. Best effort: a peer
    // that misses the announce still learns the epoch from the next
    // welcome/batch it sees, or from a NotPrimary hint.
    let primary = state.role().advertised.clone();
    let announce = Request::Repl(ReplRequest::EpochAnnounce {
        epoch,
        primary: primary.as_bytes(),
    });
    for peer in &peers {
        if let Some(stream) = dial_peer(peer) {
            // Waiting for the answer keeps the frame from being lost in a
            // close race; what it says is irrelevant.
            let _ = Pipe::new(stream).call(&announce);
        }
    }
    true
}

fn dial_peer(peer: &str) -> Option<TcpStream> {
    let addr = peer.to_socket_addrs().ok()?.next()?;
    let stream = TcpStream::connect_timeout(&addr, Duration::from_millis(250)).ok()?;
    let _ = stream.set_nodelay(true);
    stream
        .set_read_timeout(Some(Duration::from_millis(500)))
        .ok()?;
    Some(stream)
}

/// Sends `peer` the `REPL_CANDIDATE` `candidate`: whether it granted,
/// and the highest epoch it knows; `None` when it could not be asked. A
/// stalled or timed-out read leaves the request in flight, and its answer
/// is waited for until 750 ms have passed, so a stall does not cost the
/// vote.
fn request_vote(state: &ServerState, peer: &str, candidate: &Request<'_>) -> Option<(bool, u64)> {
    let stream = FaultyStream::maybe(dial_peer(peer)?, state.config.repl_fault_plan.clone());
    let mut pipe = Pipe::new(stream);
    let deadline = Instant::now() + Duration::from_millis(750);
    let mut answer = pipe.call(candidate).map(Some);
    loop {
        match answer {
            Ok(Some(Response::ReplVote { granted, epoch })) => return Some((granted, epoch)),
            Err(e) if e.kind() == io::ErrorKind::TimedOut && Instant::now() < deadline => {}
            _ => return None,
        }
        answer = pipe
            .wait()
            .and_then(|()| pipe.answer())
            .map(|ready| ready.map(|(_, resp)| resp));
    }
}

/// Admits a welcome or batch stamped `epoch` ([`Role::admit`]) and hands
/// back the role lock it took, or says how the session ends.
fn admit(state: &ServerState, epoch: u64) -> Result<MutexGuard<'_, Role>, SessionEnd> {
    let mut role = state.role();
    match role.admit(epoch) {
        Admit::Apply => Ok(role),
        Admit::Stop => Err(SessionEnd::Stop),
        Admit::Stale => {
            state
                .replica_stats
                .stale_epoch_rejects
                .fetch_add(1, Ordering::Relaxed);
            Err(SessionEnd::Failed)
        }
    }
}

fn run_session(
    state: &Arc<ServerState>,
    engine: &Engine<'_>,
    last_contact: &mut Instant,
) -> SessionEnd {
    let upstream = state.upstream_hint();
    let Some(addr) = upstream.to_socket_addrs().ok().and_then(|mut a| a.next()) else {
        return SessionEnd::Failed;
    };
    let Ok(stream) = TcpStream::connect_timeout(&addr, Duration::from_millis(500)) else {
        return SessionEnd::Failed;
    };
    let _ = stream.set_nodelay(true);
    let mut stream = FaultyStream::maybe(stream, state.config.repl_fault_plan.clone());

    let mut frame = Vec::new();
    let versions = state.store.versions(engine);
    let hello = Request::Repl(ReplRequest::Hello { versions });
    encode_request_v2(&hello, None, &mut frame);
    // From here on no read blocks: the sink waits in `idle::wait` on the
    // socket and its waker, which shutdown, promotion and a new upstream
    // wake, and reads once the wait ends. An ACK that finds the send
    // buffer full fails the session: the upstream has stopped reading.
    if write_frame(&mut stream, &frame)
        .and_then(|()| stream.get_ref().set_nonblocking(true))
        .is_err()
    {
        return SessionEnd::Failed;
    }

    let hello_sent = Instant::now();
    let mut set = idle::PollSet::default();
    let mut inbuf = FrameBuf::new();
    let mut assembler = SnapshotAssembler::new();
    let mut chunk = [0u8; 4096];
    let counters = &state.replica_stats;
    loop {
        if state.shutting_down() || !state.is_replica() {
            return SessionEnd::Stop;
        }
        if state.upstream_hint() != upstream {
            return SessionEnd::Repointed;
        }
        // The detector: a connected-but-silent upstream (frozen process,
        // dead NIC, partition) never returns `Ok(0)`; it just stops
        // producing frames. Declare it suspect once the silence outlives
        // the window — the same one as the dial-failure path in
        // `replica_loop` — and wait no longer than that; without
        // auto-promotion, wait as long as it takes. The silence counts
        // from the HELLO at the earliest: a new session's upstream gets a
        // whole window to answer, however long the one before it was
        // silent.
        let silence = (*last_contact).max(hello_sent).elapsed();
        let auto = state.config.repl_auto_promote;
        let window = auto.then(|| suspect_window(state));
        if window.is_some_and(|window| silence >= window) {
            return SessionEnd::Suspect;
        }
        set.clear();
        set.push(stream.get_ref().as_raw_fd(), idle::POLLIN);
        let timeout = window.map(|window| window - silence);
        idle::wait(state.wakeups.replica_sink(), &mut set, timeout);
        match stream.read(&mut chunk) {
            Ok(0) => return SessionEnd::Failed,
            Ok(n) => {
                // Any bytes from the upstream prove it alive — this is
                // the failure detector's heartbeat observation. Count-0
                // REPL_BATCH heartbeats arrive at lease/4 on an idle
                // stream, so a healthy primary refreshes this clock far
                // inside the suspicion window.
                *last_contact = Instant::now();
                inbuf.extend(&chunk[..n]);
            }
            // Woken with nothing to read (the waker, the deadline, or an
            // injected stall): look at everything again.
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => continue,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return SessionEnd::Failed,
        }
        loop {
            let body = match inbuf.next_frame() {
                Ok(Some(body)) => body,
                Ok(None) => break,
                Err(_) => return SessionEnd::Failed,
            };
            let resp = match decode_response(body) {
                Ok(r) => r,
                Err(_) => return SessionEnd::Failed,
            };
            match resp {
                Response::ReplWelcome { shards, epoch } => {
                    if shards as usize != state.store.shards() {
                        // Topology mismatch is permanent; stop rather
                        // than reconnect-spin against it.
                        return SessionEnd::Stop;
                    }
                    // A stale epoch is a deposed primary's: the backoff
                    // loop redials, or the winner's announce repoints.
                    if let Err(end) = admit(state, epoch) {
                        return end;
                    }
                }
                Response::ReplBatch {
                    shard,
                    flags,
                    prev_version,
                    now,
                    epoch,
                    records,
                } => {
                    let shard_idx = shard as usize;
                    if shard_idx >= state.store.shards() {
                        return SessionEnd::Failed;
                    }
                    // The role lock is held through the apply: once a
                    // promotion has re-based the feed, no batch that sat
                    // buffered in `inbuf` may advance the store past it.
                    let role = match admit(state, epoch) {
                        Ok(role) => role,
                        Err(end) => return end,
                    };
                    // Durability owed before the ACK may go out, decided
                    // under the role lock, performed after it drops (WAL
                    // waits and snapshots must not hold it).
                    let mut stage_records = false;
                    let mut need_checkpoint = false;
                    let ack = if flags & REPL_FLAG_SNAP != 0 {
                        match assembler.feed(shard, flags, prev_version, &records) {
                            Some((entries, version)) => {
                                state
                                    .store
                                    .shard_at(shard_idx)
                                    .replace(engine, &entries, version, now);
                                counters.snap_resyncs.fetch_add(1, Ordering::Relaxed);
                                need_checkpoint = true;
                                Some(ReplRequest::Ack {
                                    shard,
                                    version,
                                    nak: false,
                                })
                            }
                            None => None, // mid-snapshot chunk: ack at FIN
                        }
                    } else {
                        let trace_id = state.rt.tracer().begin_request();
                        let t0 = if trace_id != 0 { trace::now_ns() } else { 0 };
                        let applied = state.store.apply_repl_batch(
                            engine,
                            shard_idx,
                            prev_version,
                            now,
                            &records,
                        );
                        if trace_id != 0 {
                            state.rt.tracer().push(Span {
                                trace_id,
                                kind: SpanKind::ReplApply,
                                start_ns: t0,
                                dur_ns: trace::now_ns().saturating_sub(t0),
                                a: u64::from(shard),
                                b: prev_version,
                            });
                        }
                        match applied {
                            Ok(version) => {
                                counters.batches_applied.fetch_add(1, Ordering::Relaxed);
                                counters
                                    .records_applied
                                    .fetch_add(records.len() as u64, Ordering::Relaxed);
                                stage_records = true;
                                Some(ReplRequest::Ack {
                                    shard,
                                    version,
                                    nak: false,
                                })
                            }
                            Err(actual) => {
                                // The OCC conflict on the wire: our version
                                // is not what the stream assumed. NAK with
                                // where we actually are; the primary
                                // resyncs us from a snapshot.
                                counters.naks_sent.fetch_add(1, Ordering::Relaxed);
                                Some(ReplRequest::Ack {
                                    shard,
                                    version: actual,
                                    nak: true,
                                })
                            }
                        }
                    };
                    // The role lock must not be held across socket writes.
                    drop(role);
                    // Replica-side durable WAL: everything just applied
                    // must reach disk before the ACK goes out, so a
                    // freshly promoted replica serves a store no weaker
                    // than the history it acknowledged.
                    if let Some(wal) = state.wal() {
                        if stage_records && !records.is_empty() {
                            let mut last = None;
                            for (i, r) in records.iter().enumerate() {
                                let kind = match r.kind {
                                    REPL_KIND_PUT => WalKind::Put,
                                    REPL_KIND_DEL => WalKind::Del,
                                    REPL_KIND_PUTVAL => WalKind::PutVal,
                                    // decode_response already rejected
                                    // anything else
                                    _ => continue,
                                };
                                last = Some(wal.stage(Staged {
                                    shard,
                                    seq: prev_version + 1 + i as u64,
                                    kind,
                                    key: r.key,
                                    value: r.value,
                                    exp: r.exp,
                                }));
                            }
                            if let Some(t) = last {
                                if wal.wait(t).is_err() {
                                    // Log dead: acking a record we could
                                    // not make durable would be a lie —
                                    // drop the session and let the
                                    // primary resync or fence us.
                                    return SessionEnd::Failed;
                                }
                            }
                        }
                        if need_checkpoint {
                            // A snapshot bypasses the record stream, so
                            // the log holds no journal of it: a
                            // synchronous checkpoint is the only way to
                            // make the resynced shard durable before the
                            // ACK. Any older records still in the active
                            // segment carry seqs at or below the
                            // snapshot's version (versions only advance),
                            // so recovery skips them against the image.
                            match wal.begin_checkpoint() {
                                Ok((base_gen, retired)) => {
                                    let image = CheckpointImage {
                                        base_gen,
                                        shards: state.store.snapshot_all(engine),
                                    };
                                    if wal.finish_checkpoint(&image, &retired).is_err() {
                                        return SessionEnd::Failed;
                                    }
                                }
                                Err(_) => return SessionEnd::Failed,
                            }
                        }
                    }
                    if let Some(ack) = ack {
                        frame.clear();
                        encode_request_v2(&Request::Repl(ack), None, &mut frame);
                        if write_frame(&mut stream, &frame).is_err() {
                            return SessionEnd::Failed;
                        }
                    }
                }
                Response::NotPrimary { hint } => {
                    // The node we dialed is itself a replica. Follow the
                    // hint if it has one.
                    if !hint.is_empty() && hint != upstream && state.role().repoint(hint).is_ok() {
                        return SessionEnd::Repointed;
                    }
                    return SessionEnd::Failed;
                }
                Response::Error { .. } => return SessionEnd::Failed,
                _ => return SessionEnd::Failed,
            }
        }
    }
}

/// Handles one replication verb on this connection.
///
/// Free function: `outbuf`, the subscription slot and the closing flag
/// come in as separate `&mut`s from the connection `conn` destructured,
/// so they stay disjoint from the input buffer `req` borrows.
pub(crate) fn handle_repl_frame(
    engine: &Engine<'_>,
    state: &ServerState,
    wctx: &WorkerCtx,
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
                // It may settle an answer another worker parked.
                if !nak && feed.config().min_acks > 0 {
                    state.wakeups.wake_workers_but(wctx.worker);
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
    use crate::{spawn, Mode, ServerConfig, ServerHandle};
    use gocc_repl::suspect_jitter;

    impl ServerState {
        /// This node's own vote in `epoch` ([`Role::try_vote`]).
        fn try_vote(&self, epoch: u64) -> bool {
            self.role().try_vote(epoch)
        }

        /// What [`canvass`] does on a majority in `epoch`.
        fn promote_elected(&self, engine: &Engine<'_>, epoch: u64) -> bool {
            self.promote(engine, |role| role.win(epoch))
        }
    }

    /// Two candidacies closer together than this are one collision: both
    /// nodes have voted for themselves before either hears from the other.
    const COLLISION_GAP: Duration = Duration::from_millis(2);
    const BASE: Duration = Duration::from_millis(200);

    /// Two seeds whose staggers put them in epoch 1 together.
    fn colliding_seeds() -> (u64, u64) {
        let first = suspect_jitter(1, 1, BASE);
        let other = (2..100_000u64)
            .find(|&s| suspect_jitter(s, 1, BASE).abs_diff(first) < COLLISION_GAP)
            .expect("some seed draws within 2 ms of seed 1 in epoch 1");
        (1, other)
    }

    /// Two replicas of a primary that is gone, each with the other and the
    /// dead address as its electorate, and neither standing on its own
    /// (`repl_auto_promote` is off): the tests drive the candidacies.
    fn two_orphans(seeds: (u64, u64)) -> [ServerHandle; 2] {
        let dead = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
            format!("127.0.0.1:{}", l.local_addr().expect("addr").port())
        };
        let pair = [seeds.0, seeds.1].map(|seed| {
            spawn(ServerConfig {
                mode: Mode::Gocc,
                port: 0,
                workers: 1,
                shards: 2,
                capacity_per_shard: 256,
                replica_of: Some(dead.clone()),
                repl_seed: seed,
                repl_suspect: BASE,
                ..ServerConfig::default()
            })
            .expect("spawn replica")
        });
        for (node, other) in [(&pair[0], &pair[1]), (&pair[1], &pair[0])] {
            node.state()
                .set_repl_peers(vec![format!("127.0.0.1:{}", other.port()), dead.clone()]);
        }
        pair
    }

    fn shut_down(pair: [ServerHandle; 2]) {
        for h in pair {
            h.request_shutdown();
            let _ = h.join();
        }
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

    /// Two replicas of a dead primary whose staggers coincide in the first
    /// epoch: both vote for themselves, both are denied. Every round after
    /// that each waits out its window and stands again; a pair that waits
    /// the same windows every time (a stagger that is a constant per node)
    /// never elects anyone, nor does a loser that asks again for the votes
    /// of the epoch it lost.
    #[test]
    fn a_collided_election_resolves_within_a_few_rounds() {
        let pair = two_orphans(colliding_seeds());
        let (sa, sb) = (pair[0].state_arc(), pair[1].state_arc());
        let engine_a = Engine::new(&sa.rt, sa.config.mode);
        let engine_b = Engine::new(&sb.rt, sb.config.mode);

        let mut collisions = 0;
        let mut rounds = 0;
        while sa.is_replica() && sb.is_replica() {
            rounds += 1;
            assert!(
                rounds <= 8,
                "no winner in 8 rounds ({collisions} collisions)"
            );
            let (wa, wb) = (suspect_window(&sa), suspect_window(&sb));
            if wa.abs_diff(wb) < COLLISION_GAP {
                collisions += 1;
                let (ea, eb) = (stand(&sa), stand(&sb));
                let won_a = ea.is_some_and(|e| canvass(&sa, &engine_a, e));
                let won_b = eb.is_some_and(|e| canvass(&sb, &engine_b, e));
                assert!(!won_a && !won_b, "a collision elects nobody");
            } else {
                // The shorter window stands first; the other only if that
                // candidacy failed.
                let mut order = [(wa, &sa, &engine_a), (wb, &sb, &engine_b)];
                order.sort_by_key(|&(window, ..)| window);
                let _ = order
                    .iter()
                    .any(|(_, node, engine)| run_election(node, engine));
            }
            if rounds == 1 {
                assert_eq!(collisions, 1, "the seeds were chosen to collide first");
            }
        }
        assert!(sa.is_replica() != sb.is_replica(), "exactly one winner");
        let winner = if sa.is_replica() { &sb } else { &sa };
        assert!(
            winner.epoch() >= 2,
            "the winning epoch is past the collided one"
        );
        shut_down(pair);
    }

    /// A candidate whose worker grants a later epoch's vote while its own
    /// candidacy is still canvassing must not promote on the majority it
    /// then reaches: the vote it gave may be the one that elects the other
    /// candidate, and both would be primaries, one epoch apart.
    #[test]
    fn a_candidacy_is_void_once_the_node_votes_in_a_later_epoch() {
        let pair = two_orphans((1, 2));
        let (sa, sb) = (pair[0].state_arc(), pair[1].state_arc());
        let engine_a = Engine::new(&sa.rt, sa.config.mode);
        let engine_b = Engine::new(&sb.rt, sb.config.mode);
        let epoch = stand(&sa).expect("first candidacy");
        // What the `REPL_CANDIDATE` handler does for a peer standing one
        // epoch higher, between this node's `stand` and its promotion.
        assert!(sa.try_vote(epoch + 1));
        assert!(
            !canvass(&sa, &engine_a, epoch),
            "promoted on a void candidacy"
        );
        assert!(sa.is_replica() && sb.is_replica());
        // The peer it voted for is elected by that vote, and as a primary
        // grants nothing afterwards.
        assert!(sb.try_vote(epoch + 1));
        assert!(sb.promote_elected(&engine_b, epoch + 1));
        assert!(!sb.try_vote(epoch + 5), "a primary votes nobody in");
        shut_down(pair);
    }

    /// A manual `REPL_PROMOTE` stands in an epoch of its own. A node that
    /// stood in epoch e and did not win it may not take e by promotion:
    /// a peer may hold e's majority, and both would be primaries in e.
    #[test]
    fn a_manual_promotion_stands_above_the_nodes_own_candidacy() {
        let pair = two_orphans((1, 2));
        let sa = pair[0].state_arc();
        let engine_a = Engine::new(&sa.rt, sa.config.mode);
        let epoch = stand(&sa).expect("first candidacy");
        let promote = ReplRequest::Promote { upstream: b"" };
        let (mut out, mut sub, mut closing) = (Vec::new(), None, false);
        let wctx = &WorkerCtx {
            worker: 0,
            now: Instant::now(),
            frames_seen: 0,
            lat_sum_ns: 0,
            lat_count: 0,
        };
        handle_repl_frame(
            &engine_a,
            &sa,
            wctx,
            &mut out,
            &mut sub,
            &mut closing,
            promote,
        );
        assert!(!sa.is_replica(), "the promotion took");
        assert!(
            sa.epoch() > epoch,
            "promoted in epoch {}, the one it stood in",
            sa.epoch()
        );
        shut_down(pair);
    }

    /// A candidate denied by a peer that has voted in a later epoch learns
    /// that epoch from the reply and stands above it next time. Without
    /// that, a peer that stands more often than the candidate (one behind
    /// in history, so it never wins) keeps its vote ahead of every
    /// candidacy it is asked for, and nobody is elected.
    #[test]
    fn a_denied_candidate_stands_above_the_peers_last_vote() {
        let pair = two_orphans((1, 2));
        let (sa, sb) = (pair[0].state_arc(), pair[1].state_arc());
        let engine_a = Engine::new(&sa.rt, sa.config.mode);
        // The peer's own candidacies in epochs 1 and 2, canvassing nobody.
        assert_eq!((stand(&sb), stand(&sb)), (Some(1), Some(2)));
        assert!(
            !run_election(&sa, &engine_a),
            "epoch 1 is spent at the peer"
        );
        assert!(
            run_election(&sa, &engine_a),
            "the next candidacy stands above the peer's vote"
        );
        assert!(!sa.is_replica() && sb.is_replica());
        shut_down(pair);
    }

    /// Two survivors that differ in history: the one behind cannot win,
    /// yet it stands whenever its window ends first. The one ahead denies
    /// it but spends that epoch, so its own next candidacy stands above
    /// the peer's vote and wins, however often the peer stood first.
    #[test]
    fn a_peer_behind_in_history_does_not_keep_the_one_ahead_from_winning() {
        let pair = two_orphans((1, 2));
        let (sa, sb) = (pair[0].state_arc(), pair[1].state_arc());
        let engine_a = Engine::new(&sa.rt, sa.config.mode);
        let engine_b = Engine::new(&sb.rt, sb.config.mode);
        let record = ReplRecord {
            kind: REPL_KIND_PUT,
            key: 7,
            value: 7,
            exp: 0,
        };
        assert_eq!(
            sa.store.apply_repl_batch(&engine_a, 0, 0, 0, &[record]),
            Ok(1)
        );
        for _ in 0..3 {
            assert!(!run_election(&sb, &engine_b), "the peer behind won");
        }
        assert!(run_election(&sa, &engine_a), "the node ahead lost");
        shut_down(pair);
    }

    /// A replica that has heard nothing for longer than its suspect window
    /// opens a session to a live primary, as it does after an announce or
    /// a long reconnect backoff: it waits for the welcome and the
    /// heartbeats behind it, and does not suspect the new upstream for
    /// the old one's silence.
    #[test]
    fn a_new_session_is_not_suspected_for_the_old_upstreams_silence() {
        let primary = spawn(ServerConfig {
            repl_accept: true,
            ..ServerConfig::default()
        })
        .expect("spawn primary");
        // The replica's state alone: no sink of its own subscribes.
        let replica = ServerState::new(ServerConfig {
            replica_of: Some(format!("127.0.0.1:{}", primary.port())),
            repl_auto_promote: true,
            repl_suspect: BASE,
            ..ServerConfig::default()
        })
        .map(Arc::new)
        .expect("replica state");
        let feed = primary.state().repl_feed().expect("feed");
        let mut last_contact = Instant::now() - 10 * BASE;
        let end = std::thread::scope(|s| {
            let session = s.spawn(|| {
                let engine = Engine::new(&replica.rt, replica.config.mode);
                run_session(&replica, &engine, &mut last_contact)
            });
            // The first heartbeat comes a quarter lease after the welcome,
            // inside the window; its ack shows the session heard it.
            while feed.counters().acks() == 0 && !session.is_finished() {
                std::thread::yield_now();
            }
            replica.request_shutdown();
            session.join().expect("session")
        });
        assert!(matches!(end, SessionEnd::Stop), "the session ended {end:?}");
        primary.request_shutdown();
        let _ = primary.join();
    }
}
