//! Server-side replication wiring: the primary's per-subscriber stream
//! pump and the replica's upstream sink loop.
//!
//! The division of labor with `gocc-repl`:
//!
//! * [`gocc_repl::ReplFeed`] owns the protocol *state* (reorder buffer,
//!   per-subscriber queues, resync phases, leases). It is fed by the WAL
//!   syncer's durable tap (or directly by the request path on a no-WAL
//!   primary) and knows nothing about sockets.
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

use std::io::Read;
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gocc_repl::{resync_backoff, ReplFeed, SnapshotAssembler, SubId};
use gocc_telemetry::{trace, JsonWriter, Span, SpanKind};
use gocc_wal::{CheckpointImage, Staged, WalKind};
use gocc_wire::{
    decode_repl_request, decode_response, encode_repl_request, encode_response, write_frame,
    FaultyStream, FrameBuf, ReplRecord, ReplRequest, Response, REPL_FLAG_FIN, REPL_FLAG_RESET,
    REPL_FLAG_SNAP, REPL_KIND_DEL, REPL_KIND_PUT, REPL_KIND_PUTVAL,
};
use gocc_workloads::Engine;

use crate::conn::encode_error;
use crate::store::ShardedStore;
use crate::{idle, ServerState};

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
    pub(crate) fn new(id: SubId) -> Self {
        ReplSub {
            id,
            last_beat: Instant::now(),
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

/// One pump quantum of primary→replica output for a subscribed stream:
/// snapshot-resync any flagged shards, drain incremental batches, and
/// emit heartbeats (count-0 batches stamped with the stream's version,
/// which double as the version audit that keeps the lease honest).
/// Returns whether anything was produced.
pub(crate) fn pump_repl_out(
    sub: &mut ReplSub,
    feed: &ReplFeed,
    store: &ShardedStore,
    engine: &Engine<'_>,
    outbuf: &mut Vec<u8>,
    lease: Duration,
    epoch: u64,
) -> bool {
    let mut progressed = false;

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
            let (entries, seq, now) = store.shard_at(shard as usize).snapshot(engine);
            sub.snap = Some(SnapStream {
                shard,
                entries,
                seq,
                now,
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
                    now: b.now,
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
    if Instant::now() >= sub.next_beat(lease) {
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
        sub.last_beat = Instant::now();
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

/// Deterministic jitter in `[0, base)` derived from the backoff seed and
/// the epoch the node would stand in (SplitMix64 finalizer): two replicas
/// with different seeds suspect — and stand as candidates — at staggered
/// times, and the stagger is drawn again for every epoch. A constant per
/// node would not do: two candidates whose draws put them in the same
/// epoch together (both self-voted, both denied) would wait the same
/// delays and meet again in the next epoch, and the one after.
fn suspect_jitter(seed: u64, epoch: u64, base: Duration) -> Duration {
    let mut z =
        (seed ^ epoch.wrapping_mul(0xd1b5_4a32_d192_ed03)).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    base.mul_f64((z >> 11) as f64 / (1u64 << 53) as f64)
}

/// How long the upstream must stay silent before this node suspects it:
/// `repl_suspect` plus the stagger of the node's next candidacy.
fn suspect_window(state: &ServerState) -> Duration {
    let base = state.config.repl_suspect;
    base + suspect_jitter(state.config.repl_seed, state.candidacy_epoch(), base)
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
        let mut suspected = false;
        match run_session(state, &engine, &mut last_contact) {
            SessionEnd::Stop => return,
            SessionEnd::Repointed => attempt = 0,
            SessionEnd::Failed => {
                attempt = attempt.saturating_add(1);
                state
                    .replica_stats
                    .reconnects
                    .fetch_add(1, Ordering::Relaxed);
                if state.config.repl_auto_promote && last_contact.elapsed() >= suspect_window(state)
                {
                    state
                        .replica_stats
                        .suspicions
                        .fetch_add(1, Ordering::Relaxed);
                    suspected = true;
                }
            }
            SessionEnd::Suspect => {
                state
                    .replica_stats
                    .suspicions
                    .fetch_add(1, Ordering::Relaxed);
                suspected = true;
            }
        }
        if suspected && state.config.repl_auto_promote {
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
        // Only shutdown and promotion wake the sink's waker.
        if !state.shutting_down() && state.is_replica() {
            idle::wait(state.wakeups.replica_sink(), &mut set, Some(wait));
        }
    }
}

/// One quorum election round. Returns true when this node won and
/// promoted itself.
///
/// The candidate votes for itself first (one vote per epoch, same rule as
/// everyone else), then canvasses each peer with `REPL_CANDIDATE`. Voters
/// grant at most one vote per epoch, never grant while they are a live
/// primary, and never grant to a candidate with less replicated history
/// than their own — so a majority implies the winner is unique for the
/// epoch and no better-replicated node was bypassed. With no configured
/// peers the electorate is this node alone and it self-promotes: the
/// documented single-replica deployment caveat (no quorum exists to
/// protect against a partitioned false positive).
fn run_election(state: &Arc<ServerState>, engine: &Engine<'_>) -> bool {
    let Some(epoch) = stand(state) else {
        return false; // a peer's candidacy took our vote meanwhile
    };
    canvass(state, engine, epoch)
}

/// Opens a candidacy: this node's own vote, in its candidacy epoch.
fn stand(state: &ServerState) -> Option<u64> {
    let epoch = state.candidacy_epoch();
    if !state.try_vote(epoch) {
        return None;
    }
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
    let peers = state.repl_peers();
    let electorate = peers.len() + 1;
    let majority = electorate / 2 + 1;
    let mut votes = 1usize; // self
    for peer in &peers {
        if state.shutting_down() || !state.is_replica() {
            return false;
        }
        match request_vote(state, peer, epoch, &versions) {
            VoteOutcome::Granted => votes += 1,
            VoteOutcome::Denied { known_epoch } => {
                if known_epoch > epoch {
                    // A peer has seen a newer epoch — someone already won
                    // a later election. Adopt and stand down.
                    state.observe_epoch(known_epoch);
                    return false;
                }
            }
            VoteOutcome::Unreachable => {}
        }
        if votes >= majority {
            break;
        }
    }
    if votes < majority {
        return false;
    }
    if !state.promote_elected(engine, epoch) {
        return false; // voted in a later epoch while canvassing this one
    }
    // Tell the losers where the new primary lives. Best effort: a peer
    // that misses the announce still learns the epoch from the next
    // welcome/batch it sees, or from a NotPrimary hint.
    let advertised = state.advertised();
    for peer in &peers {
        let mut frame = Vec::new();
        encode_repl_request(
            &ReplRequest::EpochAnnounce {
                epoch,
                primary: advertised.as_bytes(),
            },
            &mut frame,
        );
        if let Some(mut stream) = dial_peer(peer) {
            let _ = write_frame(&mut stream, &frame);
            // One best-effort response read keeps the frame from being
            // lost in a close race; the content is irrelevant.
            let mut scratch = [0u8; 256];
            let _ = stream.read(&mut scratch);
        }
    }
    true
}

/// One canvassed peer's verdict.
enum VoteOutcome {
    Granted,
    Denied { known_epoch: u64 },
    Unreachable,
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

fn request_vote(state: &Arc<ServerState>, peer: &str, epoch: u64, versions: &[u64]) -> VoteOutcome {
    let Some(stream) = dial_peer(peer) else {
        return VoteOutcome::Unreachable;
    };
    let mut stream = FaultyStream::maybe(stream, state.config.repl_fault_plan.clone());
    let mut frame = Vec::new();
    encode_repl_request(
        &ReplRequest::Candidate {
            epoch,
            versions: versions.to_vec(),
        },
        &mut frame,
    );
    if write_frame(&mut stream, &frame).is_err() {
        return VoteOutcome::Unreachable;
    }
    let mut inbuf = FrameBuf::new();
    let mut chunk = [0u8; 4096];
    let deadline = Instant::now() + Duration::from_millis(750);
    while Instant::now() < deadline {
        match stream.read(&mut chunk) {
            Ok(0) => return VoteOutcome::Unreachable,
            Ok(n) => inbuf.extend(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut
                    || e.kind() == std::io::ErrorKind::Interrupted =>
            {
                continue;
            }
            Err(_) => return VoteOutcome::Unreachable,
        }
        match inbuf.next_frame() {
            Ok(Some(body)) => {
                return match decode_response(body) {
                    Ok(Response::ReplVote { granted, epoch, .. }) => {
                        if granted {
                            VoteOutcome::Granted
                        } else {
                            VoteOutcome::Denied { known_epoch: epoch }
                        }
                    }
                    _ => VoteOutcome::Unreachable,
                };
            }
            Ok(None) => {}
            Err(_) => return VoteOutcome::Unreachable,
        }
    }
    VoteOutcome::Unreachable
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
    // Short read timeout: every timeout tick re-checks shutdown, role and
    // upstream, so promotion and repointing are observed promptly.
    if stream
        .set_read_timeout(Some(Duration::from_millis(50)))
        .is_err()
    {
        return SessionEnd::Failed;
    }
    let mut stream = FaultyStream::maybe(stream, state.config.repl_fault_plan.clone());

    let mut frame = Vec::new();
    let versions = state.store.versions(engine);
    encode_repl_request(&ReplRequest::Hello { versions }, &mut frame);
    if write_frame(&mut stream, &frame).is_err() {
        return SessionEnd::Failed;
    }

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
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // The detector: a connected-but-silent upstream (frozen
                // process, dead NIC, partition) never returns `Ok(0)`;
                // it just stops producing frames. Declare it suspect
                // once the silence outlives the window — the same one as
                // the dial-failure path in `replica_loop`.
                if state.config.repl_auto_promote && last_contact.elapsed() >= suspect_window(state)
                {
                    return SessionEnd::Suspect;
                }
                continue;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
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
                    if epoch < state.epoch() {
                        // A deposed primary greeting us from a past
                        // epoch: refuse the session. The backoff loop
                        // will redial (or be repointed by the winner's
                        // announce).
                        counters.stale_epoch_rejects.fetch_add(1, Ordering::Relaxed);
                        return SessionEnd::Failed;
                    }
                    state.observe_epoch(epoch);
                }
                Response::ReplBatch {
                    shard,
                    flags,
                    prev_version,
                    now,
                    epoch,
                    records,
                } => {
                    if epoch < state.epoch() {
                        // Stale-epoch fencing, the replica's half: a
                        // batch stamped by a deposed primary must never
                        // reach the store, even if it was in flight when
                        // the election concluded.
                        counters.stale_epoch_rejects.fetch_add(1, Ordering::Relaxed);
                        return SessionEnd::Failed;
                    }
                    state.observe_epoch(epoch);
                    let shard_idx = shard as usize;
                    if shard_idx >= state.store.shards() {
                        return SessionEnd::Failed;
                    }
                    // Role re-check, atomic with the apply: a
                    // REPL_PROMOTE may have flipped this node to primary
                    // while this batch sat buffered in `inbuf`. The gate
                    // pairs with `promote_to_primary` — once the
                    // promotion has re-based the feed, no batch may
                    // advance the store past that base, so the check and
                    // the store mutation share one critical section.
                    let gate = state
                        .promote_gate
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    if !state.is_replica() {
                        return SessionEnd::Stop;
                    }
                    // Durability owed before the ACK may go out, decided
                    // under the gate, performed after it drops (WAL
                    // waits and snapshots must not hold the promotion
                    // mutex).
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
                    // The gate must not be held across socket writes.
                    drop(gate);
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
                        encode_repl_request(&ack, &mut frame);
                        if write_frame(&mut stream, &frame).is_err() {
                            return SessionEnd::Failed;
                        }
                    }
                }
                Response::NotPrimary { hint } => {
                    // The node we dialed is itself a replica. Follow the
                    // hint if it has one.
                    if !hint.is_empty() && hint != upstream {
                        state.set_upstream(hint.to_string());
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
/// so they stay disjoint from the input buffer `body` borrows.
pub(crate) fn handle_repl_frame(
    engine: &Engine<'_>,
    state: &ServerState,
    worker: usize,
    outbuf: &mut Vec<u8>,
    repl: &mut Option<ReplSub>,
    closing: &mut bool,
    body: &[u8],
) {
    match decode_repl_request(body) {
        Ok(ReplRequest::Hello { versions }) => {
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
                None => state.wakeups.own_stream(worker, true),
            }
            let id = feed.subscribe(&versions);
            *repl = Some(ReplSub::new(id));
            encode_response(
                &Response::ReplWelcome {
                    shards: state.store.shards() as u32,
                    epoch: state.epoch(),
                },
                outbuf,
            );
        }
        Ok(ReplRequest::Ack {
            shard,
            version,
            nak,
        }) => {
            // Acks are one-way: no response rides back. A NAK flags the
            // shard for snapshot resync inside the feed.
            if let (Some(sub), Some(feed)) = (repl.as_ref(), state.repl_feed()) {
                feed.note_ack(sub.id, shard, version, nak);
                // It may settle an answer another worker parked.
                if !nak && feed.config().min_acks > 0 {
                    state.wakeups.wake_workers_but(worker);
                }
            }
        }
        Ok(ReplRequest::Candidate { epoch, versions }) => {
            // A vote request from a peer replica standing for election.
            // Election safety lives in these denials: one vote per epoch,
            // a live primary never votes anyone in over itself, and a
            // candidate with less replicated history than ours never gets
            // our vote (so the winner has at least a majority's worth of
            // acked history).
            let own: u64 = state.store.versions(engine).iter().sum();
            let candidate: u64 = versions.iter().sum();
            let granted = state.is_replica()
                && epoch > state.epoch()
                && candidate >= own
                && state.try_vote(epoch);
            if granted {
                // Granting adopts the epoch: even if this candidate loses,
                // the old primary's stream is now recognizably stale here.
                state.observe_epoch(epoch);
            }
            encode_response(
                &Response::ReplVote {
                    granted,
                    epoch: state.epoch(),
                    version_sum: own,
                },
                outbuf,
            );
        }
        Ok(ReplRequest::EpochAnnounce { epoch, primary }) => {
            // The election winner telling us where the new primary lives.
            if !state.is_replica() {
                // A deposed primary does NOT adopt the announce — adopting
                // would un-fence it. It stays primary-at-old-epoch, kept
                // harmless by lease fencing (its replicas are gone) and by
                // stale-epoch rejection on every batch it still emits.
                encode_error(
                    "cannot repoint a primary; demotion is not supported",
                    outbuf,
                );
                return;
            }
            if epoch < state.epoch() {
                encode_error("stale epoch announce", outbuf);
                return;
            }
            state.observe_epoch(epoch);
            match std::str::from_utf8(primary) {
                Ok(addr) => {
                    if !addr.is_empty() && addr != state.advertised() {
                        state.set_upstream(addr.to_string());
                    }
                    encode_response(&Response::Done, outbuf);
                }
                Err(_) => encode_error("primary address is not valid UTF-8", outbuf),
            }
        }
        Ok(ReplRequest::Promote { upstream }) => {
            if upstream.is_empty() {
                // Become primary. Idempotent; the feed re-bases to the
                // store's live versions.
                state.promote_to_primary(engine);
                encode_response(&Response::Done, outbuf);
            } else {
                match std::str::from_utf8(upstream) {
                    Ok(addr) if state.is_replica() => {
                        // Repoint at a new primary; the sink thread picks
                        // the change up on its next poll tick.
                        state.set_upstream(addr.to_string());
                        encode_response(&Response::Done, outbuf);
                    }
                    Ok(_) => encode_error(
                        "cannot repoint a primary; demotion is not supported",
                        outbuf,
                    ),
                    Err(_) => encode_error("upstream address is not valid UTF-8", outbuf),
                }
            }
        }
        Err(e) => {
            state.counters.note_malformed();
            let message = format!("malformed replication frame: {e}");
            encode_error(&message, outbuf);
            *closing = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{spawn, Mode, ServerConfig, ServerHandle};

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
}
