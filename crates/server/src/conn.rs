//! Per-connection state machine: non-blocking read → frame → admit →
//! execute → non-blocking write, with error isolation, deadline
//! enforcement and slow-client eviction.
//!
//! Nothing here waits, on the log or on a replica: a write *parks* its
//! response, with every later one behind it, until its WAL record is
//! durable (and, with `min_acks`, until the replicas confirm it), and
//! FLUSH parks until its barrier is done. Later passes release them in
//! order — woken by the syncer's tap or a REPL_ACK, or at fencing or
//! `repl_ack_timeout`. Until then the connection reads nothing more; the
//! worker's other connections, replica streams included, are served and
//! stage into the batch being synced meanwhile.

use std::collections::VecDeque;
use std::ffi::c_short;
use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::time::{Duration, Instant};

use gocc_faultplane::LoadFault;
use gocc_repl::AckState;
use gocc_telemetry::trace;
use gocc_telemetry::{Span, SpanKind};
use gocc_wal::{DurableState, FlushToken, WalTicket};
use gocc_wire::{
    decode_request_any, encode_response, FaultyStream, FrameBuf, Request, RequestFrame, Response,
    WireError, MAX_FRAME,
};
use gocc_workloads::Engine;

use crate::idle::{POLLIN, POLLOUT};
use crate::overload::{classify, VerbClass};
use crate::repl::{handle_repl_frame, pump_repl_out, ReplSub};
use crate::stats::verb_index;
use crate::store::{BatchScratch, Pending, Routed};
use crate::{ServerState, WorkerCtx};

/// Cap on frames executed per pump so one pipelining client cannot starve
/// a worker's other connections.
const MAX_FRAMES_PER_PUMP: usize = 256;

/// Stop reading a connection holding this many unprocessed input bytes
/// and a whole frame among them until it drains: the kernel socket buffer
/// fills and TCP pushes back on the client. A frame longer than this is
/// read on until it is whole, so the per-connection bound is one frame of
/// [`MAX_FRAME`] and one read loop (64 KiB) past it.
const RECV_HIGH_WATER: usize = 256 * 1024;

/// Span cap applied when a TRACE request asks for `max: 0` ("everything"):
/// a full 8K-slot ring rendered to JSON can exceed [`MAX_FRAME`], so the
/// open-ended form drains in bounded bites instead of erroring.
const TRACE_DEFAULT_MAX: u32 = 4096;

/// What one pump pass decided.
pub(crate) enum PumpOutcome {
    /// Keep the connection. `progressed`: the pass moved a byte or an
    /// answer. `again`: another pass now would do more here; without it,
    /// what is left waits for the socket, the waker or a deadline, and in
    /// a blind wait for the tick.
    Alive { progressed: bool, again: bool },
    /// Remove the connection.
    Close,
}

enum FlushState {
    Clean { progressed: bool },
    Fatal,
}

/// One decoded-but-unanswered request of the current decode batch, in
/// one cache line from decode to encode: a data verb's [`Routed`] record
/// is executed in place by the store and answered from its reply. Answers
/// are encoded in arrival order when the batch flushes or the FIFO
/// releases them — that is what keeps the wire strictly in order even
/// though execution is grouped by shard. Aligned to its line, so the
/// batch's records never straddle two.
#[repr(align(64))]
struct PendingReq {
    /// Flight-recorder id (0 = unsampled).
    trace_id: u64,
    /// When the client stops waiting, if it gave a budget: that long after
    /// the request's bytes arrived.
    expires: Option<Instant>,
    answer: Answer,
}

/// What a pending request is answered with.
enum Answer {
    /// A data verb: executed through the store, answered from its reply.
    Exec(Routed),
    /// Shed at admission, in this health state.
    Shed(u8),
    /// Its budget ran out while it queued.
    Expired,
    /// A write refused by a primary without its live replicas.
    Fenced,
    /// A write sent to a replica (the hint is read at encode time).
    NotPrimary,
    /// FLUSH with a log: answered once the barrier it asked for is done.
    Flush(FlushToken),
}

impl Pending for PendingReq {
    fn routed(&mut self) -> Option<&mut Routed> {
        match &mut self.answer {
            Answer::Exec(routed) => Some(routed),
            _ => None,
        }
    }
}

/// An answer that waits — for its WAL record, for `min_acks` replicas, for
/// a FLUSH barrier — or that is behind one that does, with what its wait
/// needs beside the request's own record.
struct Parked {
    req: PendingReq,
    wait: Wait,
}

enum Wait {
    /// Settled: answered as the request says, or with this instead (a
    /// FLUSH's answer, or the error of a write that must not be
    /// acknowledged).
    Settled(Option<Response<'static>>),
    /// Executed, and waiting for its WAL record to be durable; then for
    /// `min_acks` replicas too, when `replicate` names its shard and
    /// version. `since_ns` starts the `WalCommit` span.
    Durable {
        ticket: WalTicket,
        replicate: Option<(u32, u64)>,
        since_ns: u64,
    },
    /// FLUSH: waiting for the barrier it asked for.
    Flush(FlushToken),
    /// Executed, and waiting for `min_acks` replicas to confirm `version`
    /// of `shard`, for at most `repl_ack_timeout` from `since`.
    Replicating {
        shard: u32,
        version: u64,
        since: Instant,
    },
}

impl Parked {
    /// Settles this answer at the pass's instant if it can, and says whether
    /// it is final: all are but a write the log has not made durable, a
    /// FLUSH whose barrier is not done, and a write whose acks are not in,
    /// until fencing, `repl_ack_timeout` or `give_up` (the shutdown drain's
    /// deadline) ends its wait. Never blocks. A look at the log first flags
    /// the worker as waiting on it, so the syncer's next pass wakes it.
    fn settle(&mut self, state: &ServerState, wctx: &WorkerCtx, give_up: bool) -> bool {
        let log = || {
            state.wakeups.await_wal(wctx.worker);
            state.wal().expect("only a logged answer waits on the log")
        };
        match self.wait {
            Wait::Settled(_) => return true,
            Wait::Flush(token) => {
                self.wait = Wait::Settled(Some(match log().flush_state(token) {
                    DurableState::Durable(durable_lsn) => Response::Flushed { durable_lsn },
                    DurableState::Failed => Response::Error {
                        message: "write-ahead log failed",
                    },
                    DurableState::Pending => return false,
                }));
                return true;
            }
            Wait::Durable {
                ticket,
                replicate,
                since_ns,
            } => {
                let durable = log().durable_state(ticket);
                if durable == DurableState::Pending {
                    return false;
                }
                let number = ticket.number();
                let trace_id = self.req.trace_id;
                span_since(state, trace_id, SpanKind::WalCommit, since_ns, number, 0);
                // The in-memory effect is applied; if the log died, say so
                // instead of acknowledging a write that may not survive a
                // crash.
                self.wait = match (durable, replicate) {
                    (DurableState::Failed, _) => Wait::Settled(Some(Response::Error {
                        message: "write-ahead log failed; write not durable",
                    })),
                    (_, Some((shard, version))) => Wait::Replicating {
                        shard,
                        version,
                        since: wctx.now,
                    },
                    (_, None) => Wait::Settled(None),
                };
            }
            Wait::Replicating { .. } => {}
        }
        let Wait::Replicating {
            shard,
            version,
            since,
        } = self.wait
        else {
            return true;
        };
        let feed = state.repl_feed().expect("only a feed's writes replicate");
        // Applied locally but not acknowledged: not accepted, says the error.
        let message = match feed.ack_state(shard, version, wctx.now) {
            AckState::Acked => None,
            AckState::Fenced => Some("primary fenced: write not acknowledged"),
            AckState::Pending if give_up || wctx.now >= since + state.config.repl_ack_timeout => {
                Some("replication timed out: write not acknowledged")
            }
            AckState::Pending => return false,
        };
        self.wait = Wait::Settled(message.map(|message| Response::Error { message }));
        true
    }

    /// When a parked answer must be looked at again though nothing woke
    /// its worker: a write waiting for acks, at its `repl_ack_timeout` or
    /// the feed's next lease expiry, whichever comes first — fencing has
    /// no event of its own.
    fn deadline(&self, state: &ServerState, now: Instant) -> Option<Instant> {
        let Wait::Replicating { since, .. } = self.wait else {
            return None;
        };
        let feed = state.repl_feed();
        let lease = feed.and_then(|feed| feed.next_lease_expiry(now));
        let timeout = since + state.config.repl_ack_timeout;
        Some(lease.map_or(timeout, |lease| lease.min(timeout)))
    }

    /// Encodes this answer, which [`Parked::settle`] has settled.
    fn encode(self, state: &ServerState, now: Instant, outbuf: &mut Vec<u8>) {
        let Wait::Settled(instead) = self.wait else {
            unreachable!("only a settled answer is encoded");
        };
        encode_answer(state, &self.req, instead, now, outbuf);
    }
}

/// The batch path's reusable buffers. Capacity persists across pump
/// passes, so a steady-state pass allocates nothing.
#[derive(Default)]
struct BatchBufs {
    /// The current decode batch, in arrival order.
    pending: Vec<PendingReq>,
    scratch: BatchScratch,
    /// Answers waiting for the log or replica acks, or behind one, in
    /// arrival order.
    parked: VecDeque<Parked>,
    /// The encoded answer of the unbatched frame whose flush parked: it
    /// goes out once `parked` drains.
    behind: Vec<u8>,
}

/// One client connection, owned for its whole life by the worker it was
/// dealt to — a replica's stream (REPL_HELLO) included. Its transport `S`
/// is a non-blocking socket in `goccd`, and whatever a test drives.
///
/// The stream is wrapped in a [`FaultyStream`] so a configured transport
/// fault plan can perturb this connection's reads and writes; with no plan
/// the wrapper is pass-through.
pub(crate) struct Conn<S> {
    stream: FaultyStream<S>,
    inbuf: FrameBuf,
    /// What one read takes in, before `inbuf` does: kept here, so a pass
    /// does not zero 4 KiB of stack to read a window's few hundred bytes.
    chunk: Box<[u8]>,
    outbuf: Vec<u8>,
    outpos: usize,
    last_write_progress: Instant,
    /// When the oldest unprocessed bytes arrived — the pass's instant, for
    /// deadline budgets, and the trace clock's, for the queue-wait span:
    /// set on a read into an empty input buffer, cleared once it drains.
    /// Conservative for pipelined backlogs (later frames in a burst inherit
    /// its arrival, so a deadline can only fire early, never late).
    ingest_at: Option<(Instant, u64)>,
    /// Stop reading; flush what is queued, then close.
    closing: bool,
    /// Set once this connection sent REPL_HELLO: it is a replica's
    /// replication stream, and the pump additionally drains the feed's
    /// batches for this subscriber.
    repl: Option<ReplSub>,
    batch: BatchBufs,
}

impl<S: Read + Write> Conn<S> {
    /// A connection of `state`'s, adopted at `now`.
    pub(crate) fn new(stream: S, state: &ServerState, now: Instant) -> Self {
        Conn {
            stream: FaultyStream::maybe(stream, state.config.fault_plan.clone()),
            inbuf: FrameBuf::new(),
            chunk: vec![0; 4096].into_boxed_slice(),
            outbuf: Vec::new(),
            outpos: 0,
            last_write_progress: now,
            ingest_at: None,
            closing: false,
            repl: None,
            batch: BatchBufs::default(),
        }
    }

    /// Connection teardown on `worker`: count it, and release the feed
    /// subscription, if any, so a dead replica stops counting toward
    /// `min_acks` immediately instead of waiting out the lease.
    pub(crate) fn on_close(&self, state: &ServerState, worker: usize) {
        state.counters.note_close();
        if let (Some(sub), Some(feed)) = (&self.repl, state.repl_feed()) {
            feed.unsubscribe(sub.id);
            state.wakeups.own_stream(worker, false);
        }
    }

    pub(crate) fn has_parked(&self) -> bool {
        !self.batch.parked.is_empty()
    }

    fn has_pending_output(&self) -> bool {
        self.outpos < self.outbuf.len()
    }

    /// What an idle wait must watch on this connection's socket: exactly
    /// what the next [`Conn::pump`] would act on, under `pump`'s own
    /// conditions — readable only while it still reads (step 2), writable
    /// only while response bytes are queued (steps 1 and 4). Anything
    /// more and a level-triggered wait returns at once for an event the
    /// pump will not clear; anything less and it sleeps through work.
    /// What no descriptor signals either wakes the worker's waker or is
    /// due at [`Conn::deadline`].
    pub(crate) fn interest(&self) -> c_short {
        let mut events = 0;
        if self.reads() {
            events |= POLLIN;
        }
        if self.has_pending_output() {
            events |= POLLOUT;
        }
        events
    }

    /// Whether [`Conn::pump`] reads the socket (step 2): not once closing,
    /// nor while it holds a parked response, nor while it holds
    /// [`RECV_HIGH_WATER`] unprocessed bytes with a whole frame among them
    /// (short of one, only more bytes can make progress).
    fn reads(&self) -> bool {
        let full = self.inbuf.pending() >= RECV_HIGH_WATER && self.inbuf.ready();
        !self.closing && !full && !self.has_parked()
    }

    /// When [`Conn::pump`] has work here that neither a descriptor nor
    /// the waker signals: a replica stream's next heartbeat, the head
    /// parked answer's [`PendingReq::deadline`], or the eviction of a
    /// slow client whose queued bytes make no progress until then.
    pub(crate) fn deadline(&self, state: &ServerState, now: Instant) -> Option<Instant> {
        let streams = !self.closing && !state.is_replica();
        let beat = self.repl.as_ref().filter(|_| streams);
        let beat = beat.map(|sub| sub.next_beat(state.config.repl_lease));
        let head = self.batch.parked.front();
        let parked = head.and_then(|p| p.deadline(state, now));
        let evict = self.has_pending_output();
        let evict = evict.then(|| self.last_write_progress + state.config.write_timeout);
        [beat, parked, evict].into_iter().flatten().min()
    }

    /// One cooperative scheduling quantum for this connection, at
    /// `wctx.now`. It says whether another pass now would do more, which
    /// is so only where this one stopped short of what it could see: the
    /// read loop's cap, a read a fault plan cut, a whole frame left
    /// buffered, a released park, a replica stream that moved. Otherwise
    /// a short read or `WouldBlock` drained the socket, and what was
    /// encoded went out, met `WouldBlock` or was held by a slow-store draw
    /// that moved the pass's instant on (the worker re-passes for that).
    pub(crate) fn pump(
        &mut self,
        engine: &Engine<'_>,
        state: &ServerState,
        wctx: &mut WorkerCtx,
    ) -> PumpOutcome {
        // 1. Drain queued response bytes — a slow client must not hold
        //    buffered responses hostage while we keep reading. They were
        //    encoded by earlier passes, at earlier instants, so even a
        //    held pass writes them.
        let mut progressed = match self.flush_inner(wctx.now) {
            FlushState::Clean { progressed } => progressed,
            FlushState::Fatal => return PumpOutcome::Close,
        };
        // Evicted at the deadline `Conn::deadline` waits for, not after;
        // a drain is bounded by its give-up instant instead.
        if wctx.give_up_at.is_none()
            && self.has_pending_output()
            && wctx.now >= self.last_write_progress + state.config.write_timeout
        {
            state.counters.note_slow_drop();
            return PumpOutcome::Close;
        }
        // Then release the parked responses whose wait is over, for step
        // 4 to write. Once shutdown is seen the connection only drains: it
        // is closing, and at the drain's give-up instant it releases every
        // `min_acks` answer and closes whatever it still owes.
        let give_up = wctx.give_up_at.is_some_and(|at| wctx.now >= at);
        self.closing |= wctx.give_up_at.is_some();
        let released = self.batch.release(state, wctx, &mut self.outbuf, give_up);
        progressed |= released;

        // 2. Ingest bytes — unless this connection already holds more
        //    unprocessed input than the high-water mark and a whole frame
        //    in it. Not reading is the memory bound: the kernel socket
        //    buffer fills and TCP pushes back on the client.
        let mut peer_eof = false;
        let mut read_on = false;
        if self.reads() {
            // Until the socket says it is drained, the loop's cap is what
            // ends it, and the next pass reads on.
            read_on = true;
            for _ in 0..16 {
                match self.stream.read(&mut self.chunk) {
                    Ok(0) => {
                        peer_eof = true;
                        read_on = false;
                        break;
                    }
                    Ok(n) => {
                        if self.inbuf.pending() == 0 {
                            self.ingest_at = Some((wctx.now, trace::now_ns()));
                        }
                        self.inbuf.extend(&self.chunk[..n]);
                        progressed = true;
                        // A short read emptied the socket: asking again
                        // would only buy the `WouldBlock`. What a seeded
                        // split left behind is read by the next pass,
                        // which follows at once.
                        if n < self.chunk.len() {
                            read_on = self.stream.cut_short();
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        read_on = false;
                        break;
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => return PumpOutcome::Close,
                }
            }
        }

        // 3. Admit and execute complete frames.
        if !self.closing {
            progressed |= self.process_frames(engine, state, wctx);
        }
        if self.inbuf.pending() == 0 {
            self.ingest_at = None;
        }

        // 3b. If this is a subscribed replication stream, drain the feed:
        // snapshot resyncs, incremental batches, heartbeats. A promoted-
        // away (replica) node stops pumping — its feed is a sink, not a
        // source. It stops at its output high-water mark, so a stream
        // that moved is looked at again.
        let mut streamed = false;
        if !self.closing && !state.is_replica() {
            if let (Some(sub), Some(feed)) = (&mut self.repl, state.repl_feed()) {
                streamed = pump_repl_out(sub, feed, state, engine, &mut self.outbuf, wctx.now);
            }
        }
        progressed |= streamed;

        // 4. Push out what this pass encoded, unless a slow-store draw
        //    moved the pass's instant past the one it was handed: then the
        //    next pass writes it, at that instant or later. STATS counts
        //    what the pass did first, so no client reads an answer that
        //    its counters do not show yet.
        if !wctx.held {
            wctx.publish(state);
            match self.flush_inner(wctx.now) {
                FlushState::Clean { progressed: p } => progressed |= p,
                FlushState::Fatal => return PumpOutcome::Close,
            }
        }

        let done = (self.closing || peer_eof) && !self.has_parked() && !self.has_pending_output();
        if done || give_up {
            return PumpOutcome::Close;
        }
        if peer_eof {
            // Half-closed with responses still queued: flush, then close.
            self.closing = true;
        }
        let reads_resume = released && !self.has_parked();
        let frame_left = !self.closing && !self.has_parked() && self.inbuf.ready();
        PumpOutcome::Alive {
            progressed,
            again: read_on || reads_resume || frame_left || streamed,
        }
    }

    /// Decodes, admits and executes buffered frames — the one request path.
    ///
    /// Every request passes [`admit`] once. A rejected request's answer
    /// and every single-key data verb (GET, SET, DEL, INCR, SET_S, GET_S)
    /// join the pending batch, which executes with **one** critical
    /// section per shard-group when it flushes — at the pump cap, at end
    /// of buffered input, or before any frame that cannot join a batch
    /// (control verbs, SCAN, replication verbs, framing errors). A lone
    /// request is a batch of one. Responses are encoded at flush time in
    /// arrival order, so the wire ordering is identical to executing one
    /// frame at a time. Decoding stops at the first flush that parks a
    /// response; the frame that forced that flush answers behind it.
    ///
    /// A decode error sends one final `Error` response and marks the
    /// connection closing. An *oversized* frame is the one framing error
    /// that does not cost the connection: `FrameBuf` skips its body and
    /// resynchronizes, so the response is an `Error` and the conversation
    /// continues. Shed and deadline-expired requests answer with their
    /// dedicated retriable responses and also keep the connection.
    fn process_frames(
        &mut self,
        engine: &Engine<'_>,
        state: &ServerState,
        wctx: &mut WorkerCtx,
    ) -> bool {
        let mut progressed = false;
        let Conn {
            inbuf,
            outbuf,
            closing,
            repl,
            batch,
            ingest_at,
            ..
        } = self;
        for _ in 0..MAX_FRAMES_PER_PUMP {
            if *closing || !batch.parked.is_empty() {
                break;
            }
            let (arrival, ingest_ns) = ingest_at.unwrap_or_else(|| (wctx.now, trace::now_ns()));
            match inbuf.next_frame() {
                Ok(None) => break,
                Ok(Some(body)) => {
                    progressed = true;
                    // Flight recorder: the sampling decision is made once
                    // per request, here at frame decode, and the id rides
                    // the worker's thread-local through admission, the
                    // engine, and the HTM session until the frame is done.
                    let decode_t0 = if state.rt.tracer().sample_n() != 0 {
                        trace::now_ns()
                    } else {
                        0
                    };
                    let body_len = body.len() as u64;
                    match decode_request_any(body) {
                        // Replication verbs bypass counting and admission:
                        // a brownout must never shed the ack stream that
                        // keeps the primary's lease (and its replicas)
                        // alive. They still flush the batch first — a REPL
                        // frame between two data frames must not reorder
                        // their responses.
                        Ok(RequestFrame {
                            req: Request::Repl(req),
                            ..
                        }) => {
                            let out = flush_batch(engine, state, wctx, outbuf, batch);
                            handle_repl_frame(engine, state, wctx, out, repl, closing, req);
                        }
                        Ok(frame) => {
                            let req = &frame.req;
                            wctx.frames_seen += 1;
                            let verb = verb_index(req);
                            wctx.tally.request(verb);
                            let trace_id = state.rt.tracer().begin_request();
                            if trace_id != 0 {
                                span_since(
                                    state,
                                    trace_id,
                                    SpanKind::WireDecode,
                                    decode_t0,
                                    body_len,
                                    verb as u64,
                                );
                                // How long the frame's bytes sat in the
                                // input buffer before its decode began.
                                state.rt.tracer().push(Span {
                                    trace_id,
                                    kind: SpanKind::QueueWait,
                                    start_ns: ingest_ns,
                                    dur_ns: decode_t0.saturating_sub(ingest_ns),
                                    a: wctx.frames_seen,
                                    b: 0,
                                });
                            }
                            let budget = frame.deadline_us.map(u64::from);
                            let expires = budget.map(|us| arrival + Duration::from_micros(us));
                            let pending = |answer| PendingReq {
                                trace_id,
                                expires,
                                answer,
                            };
                            let admitted = admit(state, wctx, req, expires, trace_id)
                                .map(|()| state.store.route(req));
                            match admitted {
                                // Rejected: the answer rides the batch so
                                // it keeps its in-order response slot.
                                Err(answer) => batch.pending.push(pending(answer)),
                                // The section reads the key's slot and its
                                // stripe first: ask for both now, so the
                                // window's misses are taken during its
                                // decode, not one key at a time inside it.
                                Ok(Some(routed)) => {
                                    state.store.prefetch(engine, &routed);
                                    let answer = role_check(state, routed, wctx.now);
                                    batch.pending.push(pending(answer));
                                }
                                // Control verb or SCAN: flush what is
                                // pending (in-order responses), then run
                                // it on its own — but a logged FLUSH
                                // asks for its barrier once the writes
                                // before it are staged, and parks.
                                Ok(None) => {
                                    let out = flush_batch(engine, state, wctx, outbuf, batch);
                                    if let (Request::Flush, Some(wal)) = (req, state.wal()) {
                                        let token = wal.request_flush();
                                        batch.pending.push(pending(Answer::Flush(token)));
                                        continue;
                                    }
                                    // A STATS answer counts every request
                                    // ahead of it.
                                    wctx.publish(state);
                                    trace::set_current(trace_id);
                                    if !execute_admitted(engine, state, wctx, out, req, expires) {
                                        *closing = true;
                                    }
                                    trace::clear_current();
                                }
                            }
                        }
                        Err(e) => {
                            wctx.frames_seen += 1;
                            let out = flush_batch(engine, state, wctx, outbuf, batch);
                            state.counters.note_malformed();
                            let message = format!("malformed frame: {e}");
                            encode_error(&message, out);
                            *closing = true;
                        }
                    }
                }
                Err(WireError::TooLarge) => {
                    // Oversized frame: FrameBuf discards the body and
                    // resynchronizes, so answer and keep the connection.
                    progressed = true;
                    let out = flush_batch(engine, state, wctx, outbuf, batch);
                    state.counters.note_oversized();
                    encode_error("frame exceeds size limit", out);
                }
                Err(e) => {
                    // Corrupt length prefix: there is no resynchronizing.
                    let out = flush_batch(engine, state, wctx, outbuf, batch);
                    state.counters.note_malformed();
                    let message = format!("unrecoverable framing error: {e}");
                    encode_error(&message, out);
                    *closing = true;
                }
            }
        }
        flush_batch(engine, state, wctx, outbuf, batch);
        progressed
    }

    /// Writes queued response bytes; bytes taken at `now` are progress.
    fn flush_inner(&mut self, now: Instant) -> FlushState {
        let mut progressed = false;
        loop {
            if !self.has_pending_output() {
                self.outbuf.clear();
                self.outpos = 0;
                return FlushState::Clean { progressed };
            }
            match self.stream.write(&self.outbuf[self.outpos..]) {
                Ok(0) => return FlushState::Fatal,
                Ok(n) => {
                    self.outpos += n;
                    self.last_write_progress = now;
                    progressed = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    return FlushState::Clean { progressed }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return FlushState::Fatal,
            }
        }
    }
}

impl<S: AsRawFd> Conn<S> {
    pub(crate) fn raw_fd(&self) -> RawFd {
        self.stream.get_ref().as_raw_fd()
    }
}

/// The admission prologue every decoded request passes once, whatever its
/// verb, at the pass's instant: deadline pre-check (a request whose budget
/// ran out while it queued, as a zero one always has, never reaches the
/// engine; the control plane is exempt), then the brownout decision on
/// this pass's queue depth — so a batch never smuggles work past the
/// controller. `Err` is the rejection's answer. Only the reject path reads
/// a clock: it is timed on the trace clock from its verdict into the shed
/// counters, and the overload soak asserts its mean stays under 10 µs.
fn admit(
    state: &ServerState,
    wctx: &WorkerCtx,
    req: &Request<'_>,
    expires: Option<Instant>,
    trace_id: u64,
) -> Result<(), Answer> {
    let class = classify(req);
    if class != VerbClass::Control && expires.is_some_and(|at| wctx.now >= at) {
        state.counters.note_deadline_pre();
        return Err(Answer::Expired);
    }
    let limit = state.config.queue_limit;
    let verdict = state
        .brownout
        .admit(class, wctx.frames_seen, limit, wctx.now);
    let Err(cause) = verdict else {
        return Ok(());
    };
    let t0 = trace::now_ns();
    let health = state.brownout.state() as u8;
    let (index, health_b) = (cause.index() as u64, u64::from(health));
    span_since(state, trace_id, SpanKind::Shed, t0, index, health_b);
    let shed_ns = trace::now_ns().saturating_sub(t0);
    state.counters.note_shed(wctx.worker, cause, shed_ns);
    Err(Answer::Shed(health))
}

/// Role checks for an admitted data verb, per request, at the point it
/// joins the batch. Replicas serve reads and redirect writes to the
/// primary (the replication stream is a replica's only writer, so its
/// shard versions stay exactly the primary's). A primary that cannot
/// currently reach `min_acks` live replicas must not apply (much less
/// ack) new writes, including ones arriving mid-pipeline — a partitioned
/// old primary goes read-only instead of diverging, judged at `now`.
fn role_check(state: &ServerState, routed: Routed, now: Instant) -> Answer {
    if routed.is_write() {
        if state.is_replica() {
            return Answer::NotPrimary;
        }
        if let Some(feed) = state.repl_feed() {
            if feed.fenced(now) {
                feed.counters().note_fenced_reject();
                return Answer::Fenced;
            }
        }
    }
    Answer::Exec(routed)
}

/// Takes the load plan's SlowStore draw for one executed request: the
/// stall moves the pass's instant on by as much, and holds what the pass
/// writes from then on for the next pass. A stall of zero holds nothing:
/// output is held only when the instant moved, which is what makes the
/// worker take that next pass at once.
fn draw_slow_store(state: &ServerState, wctx: &mut WorkerCtx) {
    if let Some(plan) = &state.config.load_plan {
        if let Some(LoadFault::SlowStore(d)) = plan.draw_store(wctx.worker as u64) {
            wctx.now += d;
            wctx.held |= !d.is_zero();
        }
    }
}

/// Executes and answers the pending batch — the one place a data verb
/// meets the store, the WAL and the replication gate. One critical
/// section per shard-group via [`crate::ShardedStore::execute_batch`]
/// (a `BatchExec` span per group, a `StoreOp` span per request), each
/// reply written into its request's record; then per request, in arrival
/// order: stage a write's post-image if a log or a feed takes it, and
/// encode — or park, when it waits for its own WAL barrier or `min_acks`,
/// or is behind an answer that does. Returns where the next answer goes:
/// `outbuf`, or behind the parked ones. No-op on an empty batch.
fn flush_batch<'a>(
    engine: &Engine<'_>,
    state: &ServerState,
    wctx: &mut WorkerCtx,
    outbuf: &'a mut Vec<u8>,
    batch: &'a mut BatchBufs,
) -> &'a mut Vec<u8> {
    let BatchBufs {
        pending,
        scratch,
        parked,
        behind,
    } = batch;
    if pending.is_empty() {
        return if parked.is_empty() { outbuf } else { behind };
    }
    // One fault draw per executed request.
    if state.config.load_plan.is_some() {
        for _ in pending.iter_mut().filter_map(Pending::routed) {
            draw_slow_store(state, wctx);
        }
    }
    let tally = &mut wctx.tally;
    let (lat_sum_ns, lat_count) = (&mut wctx.lat_sum_ns, &mut wctx.lat_count);
    state.store.execute_batch(
        engine,
        pending,
        scratch,
        |shard, pending, positions, run| {
            // The group's engine section runs under the first sampled
            // request's trace id, so Section/HtmAttempt spans attach
            // to a real request; the BatchExec span marks the whole
            // group and carries its size.
            let parent = positions
                .iter()
                .map(|&p| pending[p].trace_id)
                .find(|&id| id != 0)
                .unwrap_or(0);
            let t0_ns = trace::now_ns();
            trace::set_current(parent);
            run();
            trace::clear_current();
            let group_ns = trace::now_ns().saturating_sub(t0_ns);
            let n = positions.len() as u64;
            // Engine latency only feeds the brownout EWMA (the barrier
            // waits below are deliberate batching, not overload); the
            // group's cost is attributed evenly across its requests so
            // the controller sees the amortized per-request load, and
            // is accounted once for all of them.
            let per_req_ns = group_ns / n.max(1);
            *lat_sum_ns += per_req_ns * n;
            *lat_count += n;
            tally.executed(n);
            tally.batch(n);
            state.counters.note_latency(per_req_ns, n);
            state.counters.note_batch_size(n);
            // No sampled request in the group: no span to push.
            if parent != 0 {
                for &p in positions {
                    let pr = &pending[p];
                    if let (Answer::Exec(r), true) = (&pr.answer, pr.trace_id != 0) {
                        state.rt.tracer().push(Span {
                            trace_id: pr.trace_id,
                            kind: SpanKind::StoreOp,
                            start_ns: t0_ns,
                            dur_ns: group_ns,
                            a: r.verb_index() as u64,
                            b: 1,
                        });
                    }
                }
                state.rt.tracer().push(Span {
                    trace_id: parent,
                    kind: SpanKind::BatchExec,
                    start_ns: t0_ns,
                    dur_ns: group_ns,
                    a: n,
                    b: u64::from(shard),
                });
            }
        },
    );
    // Epilogue + response encode, in arrival order. The WAL barrier and
    // the replication gate stay per record: each mutation's ack waits for
    // exactly its own.
    let wal = state.wal();
    let feed = state.repl_feed().filter(|_| !state.is_replica());
    // Replication gate: with `min_acks` configured, a write's ack is
    // withheld until enough replicas confirmed its version, or the
    // primary turns out to be fenced.
    let gated = feed.filter(|feed| feed.config().min_acks > 0);
    let mut published = false;
    for p in pending.drain(..) {
        let wait = match p.answer {
            // Only a log or a feed takes a post-image.
            Answer::Exec(routed) if wal.is_some() || feed.is_some() => {
                let staged = routed.staged();
                let replicate = gated.and(staged).map(|s| (s.shard, s.seq));
                match (wal, feed, staged) {
                    // Ack-after-barrier: the response for a logged write
                    // is not encoded until its record is inside an
                    // fsynced prefix.
                    (Some(wal), _, Some(staged)) => Some(Wait::Durable {
                        ticket: wal.stage(staged),
                        replicate,
                        since_ns: stamp(p.trace_id),
                    }),
                    // No-WAL primary: the applied write is this
                    // deployment's durable prefix (there is nothing
                    // stronger to wait for), so it enters the feed here.
                    (None, Some(feed), Some(staged)) => {
                        feed.publish(staged.shard, std::slice::from_ref(&staged));
                        published = true;
                        replicate.map(|(shard, version)| Wait::Replicating {
                            shard,
                            version,
                            since: wctx.now,
                        })
                    }
                    _ => None,
                }
            }
            Answer::Flush(token) => Some(Wait::Flush(token)),
            _ => None,
        };
        // Once one answer waits, every later one waits behind it.
        let mut held = match wait {
            None if parked.is_empty() => {
                encode_answer(state, &p, None, wctx.now, outbuf);
                continue;
            }
            None => Parked {
                req: p,
                wait: Wait::Settled(None),
            },
            Some(wait) => Parked { req: p, wait },
        };
        if parked.is_empty() && held.settle(state, wctx, false) {
            held.encode(state, wctx.now, outbuf);
        } else {
            parked.push_back(held);
        }
    }
    if published {
        wctx.own_wake |= state.wakeups.feed_moved(wctx.worker);
    }
    if parked.is_empty() {
        outbuf
    } else {
        behind
    }
}

impl BatchBufs {
    /// Encodes the parked answers whose wait is over at the pass's
    /// instant, head first, and once none is left, the bytes behind them.
    /// Returns whether any went out.
    fn release(
        &mut self,
        state: &ServerState,
        wctx: &WorkerCtx,
        outbuf: &mut Vec<u8>,
        give_up: bool,
    ) -> bool {
        let ready = self
            .parked
            .iter_mut()
            .map(|p| p.settle(state, wctx, give_up))
            .take_while(|&settled| settled)
            .count();
        for p in self.parked.drain(..ready) {
            p.encode(state, wctx.now, outbuf);
        }
        if self.parked.is_empty() {
            outbuf.append(&mut self.behind);
        }
        ready > 0
    }
}

/// Encodes one settled answer: a rejection's, a FLUSH's, or an executed
/// request's reply — or `instead`, the error that replaces it — each
/// [`unless_late`].
fn encode_answer(
    state: &ServerState,
    p: &PendingReq,
    instead: Option<Response<'static>>,
    now: Instant,
    outbuf: &mut Vec<u8>,
) {
    let resp = match p.answer {
        Answer::Exec(routed) => instead.unwrap_or_else(|| routed.response()),
        Answer::Flush(_) => {
            let resp = instead.expect("a FLUSH is answered once its barrier settles");
            return encode_response(&resp, outbuf);
        }
        Answer::Shed(health) => {
            return encode_response(&Response::Overloaded { state: health }, outbuf)
        }
        Answer::Expired => return encode_response(&Response::DeadlineExceeded, outbuf),
        Answer::Fenced => {
            return encode_error("primary fenced: insufficient live replicas", outbuf)
        }
        Answer::NotPrimary => {
            let hint = state.upstream_hint();
            return encode_response(&Response::NotPrimary { hint: &hint }, outbuf);
        }
    };
    let out_start = outbuf.len();
    let resp_t0 = stamp(p.trace_id);
    encode_response(&unless_late(state, p.expires, now, resp), outbuf);
    let written = (outbuf.len() - out_start) as u64;
    span_since(
        state,
        p.trace_id,
        SpanKind::ResponseWrite,
        resp_t0,
        written,
        0,
    );
}

/// Executes one admitted verb that cannot join a batch: the control plane
/// and SCAN (cross-shard, one read section per shard, no record to log or
/// replicate; answered [`unless_late`], like the batch path).
///
/// Returns `false` when the connection must start closing (SHUTDOWN).
/// Free function (not a method) so the borrow of `outbuf` stays disjoint
/// from the rest of the connection.
fn execute_admitted(
    engine: &Engine<'_>,
    state: &ServerState,
    wctx: &mut WorkerCtx,
    outbuf: &mut Vec<u8>,
    req: &Request<'_>,
    expires: Option<Instant>,
) -> bool {
    let trace_id = state.rt.tracer().current();
    let out_start = outbuf.len();
    // Start of the response-encode window: control verbs encode straight
    // from here; SCAN resets it after the store call.
    let mut resp_t0 = stamp(trace_id);

    let keep_open = match req {
        Request::Stats => {
            let json = state.stats_json();
            let resp = Response::Stats { json: &json };
            let resp = bounded(&json, resp, "stats document exceeds frame limit");
            encode_response(&resp, outbuf);
            true
        }
        Request::Trace { max } => {
            let cap = if *max == 0 { TRACE_DEFAULT_MAX } else { *max };
            let json = state.trace_json(cap);
            let resp = Response::Trace { json: &json };
            let resp = bounded(&json, resp, "trace document exceeds frame limit");
            encode_response(&resp, outbuf);
            true
        }
        Request::Health => {
            encode_response(&state.health_response(), outbuf);
            true
        }
        // Without a WAL the barrier is vacuous; with one, FLUSH parks in
        // `process_frames` and never gets here.
        Request::Flush => {
            encode_response(&Response::Flushed { durable_lsn: 0 }, outbuf);
            true
        }
        Request::Shutdown => {
            state.request_shutdown();
            encode_response(&Response::Bye, outbuf);
            false
        }
        Request::Scan { limit } => {
            let exec_start = trace::now_ns();
            draw_slow_store(state, wctx);
            let pairs = state.store.scan(engine, *limit as usize);
            let exec_ns = trace::now_ns().saturating_sub(exec_start);
            let verb = verb_index(req) as u64;
            resp_t0 = span_since(state, trace_id, SpanKind::StoreOp, resp_t0, verb, 0);
            wctx.lat_sum_ns += exec_ns;
            wctx.lat_count += 1;
            wctx.tally.executed(1);
            state.counters.note_latency(exec_ns, 1);
            let entries = Response::Entries { pairs };
            encode_response(&unless_late(state, expires, wctx.now, entries), outbuf);
            true
        }
        // Every other verb routes (`ShardedStore::route`) and executes in
        // `flush_batch`; answer rather than panic if one ever lands here.
        _ => {
            encode_error("data verb reached the unbatched path", outbuf);
            true
        }
    };
    let written = (outbuf.len() - out_start) as u64;
    span_since(
        state,
        trace_id,
        SpanKind::ResponseWrite,
        resp_t0,
        written,
        0,
    );
    keep_open
}

/// `resp`, unless its client stopped waiting by `now`: the effect is
/// applied, but the answer is `DeadlineExceeded` — deadlines bound
/// *waiting*, not *effects*. An answer in the pass that admitted it is
/// late only if a seeded stall moved the pass's instant on.
fn unless_late<'a>(
    state: &ServerState,
    expires: Option<Instant>,
    now: Instant,
    resp: Response<'a>,
) -> Response<'a> {
    if expires.is_some_and(|at| now >= at) {
        state.counters.note_deadline_post();
        return Response::DeadlineExceeded;
    }
    resp
}

/// Answers `message` as an `Error` response.
pub(crate) fn encode_error(message: &str, outbuf: &mut Vec<u8>) {
    encode_response(&Response::Error { message }, outbuf);
}

/// A STATS/TRACE document response, or an `Error` when the document is
/// larger than a frame (a giant telemetry event trace): feeding it to the
/// encoder would trip its frame-size assert — a network-reachable panic —
/// so it is refused on just this connection instead.
fn bounded<'a>(json: &str, resp: Response<'a>, message: &'static str) -> Response<'a> {
    if json.len() > MAX_FRAME - 8 {
        Response::Error { message }
    } else {
        resp
    }
}

/// The trace clock for a sampled request; unsampled requests never read it.
pub(crate) fn stamp(trace_id: u64) -> u64 {
    if trace_id != 0 {
        trace::now_ns()
    } else {
        0
    }
}

/// Records a span that began at `start_ns` (a [`stamp`]) and ends now,
/// returning now. No-op for an unsampled request.
pub(crate) fn span_since(
    state: &ServerState,
    trace_id: u64,
    kind: SpanKind,
    start_ns: u64,
    a: u64,
    b: u64,
) -> u64 {
    if trace_id == 0 {
        return 0;
    }
    let now = trace::now_ns();
    state.rt.tracer().push(Span {
        trace_id,
        kind,
        start_ns,
        dur_ns: now.saturating_sub(start_ns),
        a,
        b,
    });
    now
}

#[cfg(test)]
mod tests {
    use super::*;
    use gocc_faultplane::TransportFaultPlan;
    use std::net::{Ipv4Addr, TcpListener, TcpStream};
    use std::sync::Arc;

    /// A request's record from decode to encode is one cache line: the
    /// store executes it in place and the encoder reads its reply.
    #[test]
    fn a_pending_request_is_one_cache_line() {
        assert_eq!(std::mem::size_of::<PendingReq>(), 64);
        assert_eq!(std::mem::align_of::<PendingReq>(), 64);
        assert_eq!(std::mem::size_of::<Routed>(), 40);
    }

    /// Every combination of the five facts [`Conn::interest`] and
    /// [`Conn::deadline`] read, against the events [`Conn::pump`] would
    /// act on in that state.
    #[test]
    fn interest_is_what_the_next_pump_would_touch() {
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).expect("bind");
        let _client = TcpStream::connect(listener.local_addr().unwrap()).expect("connect");
        let (stream, _) = listener.accept().expect("accept");
        let now = Instant::now();
        let state = ServerState::new(crate::ServerConfig {
            workers: 1,
            repl_accept: true,
            ..crate::ServerConfig::default()
        })
        .expect("state");
        let mut conn = Conn::new(stream, &state, now);
        let feed = state.repl_feed().expect("feed");
        let sub = feed.subscribe(&[0; 4], now);
        let set = Request::Set {
            key: b"k",
            value: 1,
            ttl: 0,
        };
        let routed = state.store.route(&set).expect("SET routes");
        for case in 0..32u32 {
            let [closing, at_high_water, pending_output, repl_sub, parked] =
                [0, 1, 2, 3, 4].map(|bit| case & (1 << bit) != 0);
            conn.closing = closing;
            conn.batch.parked.clear();
            if parked {
                conn.batch.parked.push_back(Parked {
                    req: PendingReq {
                        trace_id: 0,
                        expires: None,
                        answer: Answer::Exec(routed),
                    },
                    wait: Wait::Replicating {
                        shard: 0,
                        version: 1,
                        since: now,
                    },
                });
            }
            conn.inbuf = FrameBuf::new();
            if at_high_water {
                conn.inbuf.extend(&vec![0; RECV_HIGH_WATER]);
            }
            conn.outbuf.clear();
            conn.outpos = 0;
            if pending_output {
                conn.outbuf.push(0);
            }
            conn.repl = repl_sub.then(|| ReplSub::new(sub, now));

            let read = if closing || at_high_water || parked {
                0
            } else {
                POLLIN
            };
            let write = if pending_output { POLLOUT } else { 0 };
            assert_eq!(
                conn.interest(),
                read | write,
                "closing={closing} high_water={at_high_water} \
                 pending_output={pending_output} repl_sub={repl_sub} parked={parked}"
            );
            // A heartbeat, an ack timeout or an eviction is due.
            let due = (repl_sub && !closing) || parked || pending_output;
            assert_eq!(conn.deadline(&state, now).is_some(), due);
        }
        // One byte under the mark still reads, as `pump` step 2 does.
        conn.closing = false;
        conn.repl = None;
        conn.batch.parked.clear();
        conn.outbuf.clear();
        conn.inbuf = FrameBuf::new();
        conn.inbuf.extend(&vec![0; RECV_HIGH_WATER - 1]);
        assert_eq!(conn.interest(), POLLIN);
        // So does the mark itself while no whole frame is buffered: the
        // head frame is longer, and only more bytes complete it.
        conn.inbuf = FrameBuf::new();
        let declared = u32::try_from(MAX_FRAME).unwrap();
        conn.inbuf.extend(&declared.to_le_bytes());
        conn.inbuf.extend(&vec![0; RECV_HIGH_WATER]);
        assert_eq!(conn.interest(), POLLIN);
    }

    /// `pump` stops reading at the first short read. Neither the rest of
    /// a frame a seeded plan split nor the EOF behind a client's last
    /// frame may be lost to that: the next pass reads them.
    #[test]
    fn a_short_read_ends_the_pass_and_the_next_one_reads_on() {
        use gocc_faultplane::TransportMix;
        use gocc_wire::encode_request_v2;

        let mut frame = Vec::new();
        encode_request_v2(&Request::Get { key: b"absent" }, None, &mut frame);
        let mut expected = Vec::new();
        let miss = Response::Value {
            found: false,
            value: 0,
        };
        encode_response(&miss, &mut expected);

        // Every read is cut short; the seed is the first whose cut of the
        // connection's first read lands inside the frame.
        let mix = TransportMix {
            short_read: 1.0,
            ..TransportMix::default()
        };
        let splits_the_frame = |seed: &u64| {
            let plan = TransportFaultPlan::new(*seed, mix);
            plan.draw_read(0);
            plan.chop(0, 4096) < frame.len()
        };
        let seed = (0..1 << 20).find(splits_the_frame).expect("a seed");
        let plan = Arc::new(TransportFaultPlan::new(seed, mix));

        let state = ServerState::new(crate::ServerConfig {
            workers: 1,
            fault_plan: Some(Arc::clone(&plan)),
            ..crate::ServerConfig::default()
        })
        .expect("state");
        let engine = &Engine::new(&state.rt, state.config.mode);
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).expect("bind");
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).expect("connect");
        let (stream, _) = listener.accept().expect("accept");
        stream.set_nonblocking(true).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut conn = Conn::new(stream, &state, Instant::now());
        let mut wctx = WorkerCtx::new(0, Instant::now());

        client.write_all(&frame).expect("send");
        let mut passes = 0;
        while state.counters.total_requests() < 1 {
            passes += 1;
            assert!(passes < 10_000, "the split frame was never completed");
            let outcome = conn.pump(engine, &state, &mut wctx);
            wctx.publish(&state);
            assert!(matches!(outcome, PumpOutcome::Alive { .. }));
            assert_eq!(plan.counts()[0], passes, "one read per short pass");
        }
        assert!(passes >= 2, "the plan did not split the frame");
        let mut got = vec![0; expected.len()];
        client.read_exact(&mut got).expect("recv");
        assert_eq!(got, expected);

        // A last frame with EOF right behind it: the short read that
        // takes the frame must not hide the EOF from the pass after.
        client.write_all(&frame).expect("send");
        client
            .shutdown(std::net::Shutdown::Write)
            .expect("shutdown");
        let mut passes = 0;
        while matches!(
            conn.pump(engine, &state, &mut wctx),
            PumpOutcome::Alive { .. }
        ) {
            passes += 1;
            assert!(passes < 10_000, "EOF after a short read was never seen");
        }
        wctx.publish(&state);
        assert_eq!(state.counters.total_requests(), 2);
        drop(conn);
        got.clear();
        client.read_to_end(&mut got).expect("recv");
        assert_eq!(got, expected);
    }
}
