//! Per-connection state machine: non-blocking read → frame → admit →
//! execute → non-blocking write, with error isolation, deadline
//! enforcement and slow-client eviction.

use std::ffi::c_short;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::fd::{AsRawFd, RawFd};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gocc_faultplane::{LoadFault, TransportFaultPlan};
use gocc_telemetry::trace;
use gocc_telemetry::{Span, SpanKind};
use gocc_wire::{
    decode_repl_request, decode_request_any, encode_response, is_repl_request, FaultyStream,
    FrameBuf, ReplRequest, Request, Response, WireError, MAX_FRAME,
};
use gocc_workloads::Engine;

use crate::idle::{POLLIN, POLLOUT};
use crate::overload::{classify, VerbClass};
use crate::repl::{pump_repl_out, ReplSub};
use crate::stats::verb_index;
use crate::store::{BatchScratch, Routed};
use crate::{ReplWaitError, ServerState, WorkerCtx};

/// Cap on frames executed per pump so one pipelining client cannot starve
/// a worker's other connections.
const MAX_FRAMES_PER_PUMP: usize = 256;

/// Span cap applied when a TRACE request asks for `max: 0` ("everything"):
/// a full 8K-slot ring rendered to JSON can exceed [`MAX_FRAME`], so the
/// open-ended form drains in bounded bites instead of erroring.
const TRACE_DEFAULT_MAX: u32 = 4096;

/// What one pump pass decided.
pub(crate) enum PumpOutcome {
    /// Keep the connection; `made_progress` gates the worker's idle sleep.
    Alive { made_progress: bool },
    /// Remove the connection.
    Close,
}

enum FlushState {
    Clean { progressed: bool },
    Fatal,
}

/// One decoded-but-unanswered request in the connection's current decode
/// batch. Responses for the whole batch are encoded together, in arrival
/// order, once the batch flushes — that is what keeps the wire strictly
/// in order even though execution is grouped by shard.
struct PendingReq {
    /// Flight-recorder id (0 = unsampled).
    trace_id: u64,
    /// When this request's bytes arrived (deadline budgets run from here).
    arrival: Instant,
    /// Client deadline budget, if any.
    deadline_us: Option<u32>,
    /// Verb index, for the per-request `StoreOp` span payload.
    verb: usize,
    state: PendingState,
}

enum PendingState {
    /// Execute through the store.
    Exec(Routed),
    /// Answer decided at admission (shed, expired deadline, fenced
    /// primary); held unencoded until the batch flushes so it occupies
    /// its in-order response slot.
    Ready(Response<'static>),
    /// Replica write redirect (the hint is read when the batch flushes).
    NotPrimary,
}

/// The batch path's reusable buffers. Capacity persists across pump
/// passes (every vector is drained or cleared before a pass returns), so
/// a steady-state pass allocates nothing.
#[derive(Default)]
struct BatchBufs {
    /// The current decode batch, in arrival order.
    pending: Vec<PendingReq>,
    /// The batch's executable subset, as handed to the store…
    routed: Vec<Routed>,
    /// …and each routed entry's index in `pending`.
    exec_idx: Vec<usize>,
    scratch: BatchScratch,
}

/// One client connection, owned by exactly one thread at a time — a
/// worker, or the repl-out thread once it subscribes via REPL_HELLO.
///
/// The stream is wrapped in a [`FaultyStream`] so a configured transport
/// fault plan can perturb this connection's reads and writes; with no plan
/// the wrapper is pass-through.
pub(crate) struct Conn {
    stream: FaultyStream<TcpStream>,
    inbuf: FrameBuf,
    outbuf: Vec<u8>,
    outpos: usize,
    last_write_progress: Instant,
    /// When the oldest unprocessed bytes arrived: set on a read into an
    /// empty input buffer, cleared once the buffer drains. Deadline
    /// budgets are measured from here — conservative for pipelined
    /// backlogs (later frames in the same burst inherit the burst's
    /// arrival time, so a deadline can only fire early, never late).
    ingest_at: Option<Instant>,
    /// Stop reading; flush what is queued, then close.
    closing: bool,
    /// Set once this connection sent REPL_HELLO: it is a replica's
    /// replication stream, and the pump additionally drains the feed's
    /// batches for this subscriber.
    repl: Option<ReplSub>,
    batch: BatchBufs,
}

impl Conn {
    pub(crate) fn new(stream: TcpStream, fault_plan: Option<Arc<TransportFaultPlan>>) -> Self {
        Conn {
            stream: FaultyStream::maybe(stream, fault_plan),
            inbuf: FrameBuf::new(),
            outbuf: Vec::new(),
            outpos: 0,
            last_write_progress: Instant::now(),
            ingest_at: None,
            closing: false,
            repl: None,
            batch: BatchBufs::default(),
        }
    }

    /// Connection teardown: release the feed subscription, if any, so a
    /// dead replica stops counting toward `min_acks` immediately instead
    /// of waiting out the lease.
    pub(crate) fn on_close(&self, state: &ServerState) {
        if let (Some(sub), Some(feed)) = (&self.repl, state.repl_feed()) {
            feed.unsubscribe(sub.id);
        }
    }

    /// Whether this connection subscribed as a replication stream
    /// (sent REPL_HELLO). Such connections are migrated off the worker
    /// onto the dedicated repl-out thread, because a worker can block in
    /// [`flush_batch`]'s `min_acks` wait.
    pub(crate) fn is_repl_sub(&self) -> bool {
        self.repl.is_some()
    }

    pub(crate) fn has_pending_output(&self) -> bool {
        self.outpos < self.outbuf.len()
    }

    pub(crate) fn raw_fd(&self) -> RawFd {
        self.stream.get_ref().as_raw_fd()
    }

    /// What an idle wait must watch on this connection's socket: exactly
    /// what the next [`Conn::pump`] would act on, under `pump`'s own
    /// conditions — readable only while it still reads (step 2), writable
    /// only while response bytes are queued (steps 1 and 4). Anything
    /// more and a level-triggered wait returns at once for an event the
    /// pump will not clear; anything less and it sleeps through work.
    ///
    /// Not enough for a replication subscriber ([`Conn::is_repl_sub`]):
    /// its heartbeats and feed drain (step 3b) run on a clock no
    /// descriptor signals, so its owner must keep pumping it.
    pub(crate) fn interest(&self, recv_high_water: usize) -> c_short {
        let mut events = 0;
        if !self.closing && self.inbuf.pending() < recv_high_water {
            events |= POLLIN;
        }
        if self.has_pending_output() {
            events |= POLLOUT;
        }
        events
    }

    /// When [`Conn::pump`] evicts this connection as a slow client if its
    /// queued bytes make no progress until then.
    pub(crate) fn write_deadline(&self, write_timeout: Duration) -> Option<Instant> {
        self.has_pending_output()
            .then(|| self.last_write_progress + write_timeout)
    }

    /// Shutdown-drain helper: push pending bytes, ignore errors.
    pub(crate) fn flush_only(&mut self) {
        let _ = self.flush_inner();
    }

    /// One cooperative scheduling quantum for this connection.
    pub(crate) fn pump(
        &mut self,
        engine: &Engine<'_>,
        state: &ServerState,
        wctx: &mut WorkerCtx,
    ) -> PumpOutcome {
        let mut progressed = false;

        // 1. Drain queued response bytes first — a slow client must not
        //    hold buffered responses hostage while we keep reading.
        match self.flush_inner() {
            FlushState::Clean { progressed: p } => progressed |= p,
            FlushState::Fatal => return PumpOutcome::Close,
        }
        if self.has_pending_output()
            && self.last_write_progress.elapsed() > state.config.write_timeout
        {
            state.counters.note_slow_drop();
            return PumpOutcome::Close;
        }

        // 2. Ingest bytes — unless this connection already holds more
        //    unprocessed input than the high-water mark. Not reading is
        //    the memory bound: the kernel socket buffer fills and TCP
        //    pushes back on the client.
        let mut peer_eof = false;
        if !self.closing && self.inbuf.pending() < state.config.recv_high_water {
            let mut chunk = [0u8; 4096];
            for _ in 0..16 {
                match self.stream.read(&mut chunk) {
                    Ok(0) => {
                        peer_eof = true;
                        break;
                    }
                    Ok(n) => {
                        if self.inbuf.pending() == 0 {
                            self.ingest_at = Some(Instant::now());
                        }
                        self.inbuf.extend(&chunk[..n]);
                        progressed = true;
                        // A short read emptied the socket: asking again
                        // would only buy the `WouldBlock`. What a seeded
                        // split left behind is read by the next pass,
                        // which follows at once because this one
                        // progressed.
                        if n < chunk.len() {
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
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
        // source.
        if !self.closing && !state.is_replica() {
            if let (Some(sub), Some(feed)) = (&mut self.repl, state.repl_feed()) {
                progressed |= pump_repl_out(
                    sub,
                    feed,
                    &state.store,
                    engine,
                    &mut self.outbuf,
                    state.config.repl_lease,
                    state.epoch(),
                );
            }
        }

        // 4. Push out whatever step 3 produced.
        match self.flush_inner() {
            FlushState::Clean { progressed: p } => progressed |= p,
            FlushState::Fatal => return PumpOutcome::Close,
        }

        if (self.closing || peer_eof) && !self.has_pending_output() {
            return PumpOutcome::Close;
        }
        if peer_eof {
            // Half-closed with responses still queued: flush, then close.
            self.closing = true;
        }
        PumpOutcome::Alive {
            made_progress: progressed,
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
    /// frame at a time.
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
            if *closing {
                break;
            }
            let arrival = ingest_at.unwrap_or_else(Instant::now);
            match inbuf.next_frame() {
                Ok(None) => break,
                Ok(Some(body)) => {
                    progressed = true;
                    // Replication verbs bypass admission entirely: a
                    // brownout must never shed the ack stream that keeps
                    // the primary's lease (and its replicas) alive. They
                    // still flush the batch first — a REPL frame between
                    // two data frames must not reorder their responses.
                    if is_repl_request(body) {
                        flush_batch(engine, state, wctx, outbuf, batch);
                        handle_repl_frame(engine, state, outbuf, repl, closing, body);
                        continue;
                    }
                    wctx.frames_seen += 1;
                    // Flight recorder: the sampling decision is made once
                    // per request, here at frame decode, and the id rides
                    // the worker's thread-local through admission, the
                    // engine, and the HTM session until the frame is done.
                    let decode_t0 = if trace::tracing_active() {
                        trace::now_ns()
                    } else {
                        0
                    };
                    let body_len = body.len() as u64;
                    match decode_request_any(body) {
                        Ok(frame) => {
                            state.counters.note_request(&frame.req);
                            let trace_id = state.rt.tracer().begin_request();
                            let verb = verb_index(&frame.req);
                            if trace_id != 0 {
                                let now = span_since(
                                    state,
                                    trace_id,
                                    SpanKind::WireDecode,
                                    decode_t0,
                                    body_len,
                                    verb as u64,
                                );
                                // How long the frame's bytes sat in the
                                // input buffer before this pump pass
                                // reached them.
                                let wait_ns = arrival.elapsed().as_nanos() as u64;
                                state.rt.tracer().push(Span {
                                    trace_id,
                                    kind: SpanKind::QueueWait,
                                    start_ns: now.saturating_sub(wait_ns),
                                    dur_ns: wait_ns,
                                    a: wctx.frames_seen,
                                    b: 0,
                                });
                            }
                            let pending = |decided| PendingReq {
                                trace_id,
                                arrival,
                                deadline_us: frame.deadline_us,
                                verb,
                                state: decided,
                            };
                            let admitted = admit(
                                state,
                                wctx,
                                arrival,
                                &frame.req,
                                frame.deadline_us,
                                trace_id,
                            )
                            .map(|()| state.store.route(&frame.req));
                            match admitted {
                                // Rejected: the answer rides the batch so
                                // it keeps its in-order response slot.
                                Err(resp) => {
                                    batch.pending.push(pending(PendingState::Ready(resp)));
                                }
                                Ok(Some(routed)) => {
                                    batch.pending.push(pending(role_check(state, routed)));
                                }
                                // Control verb or SCAN: flush what is
                                // pending (in-order responses), then run
                                // it on its own.
                                Ok(None) => {
                                    flush_batch(engine, state, wctx, outbuf, batch);
                                    trace::set_current(trace_id);
                                    if !execute_admitted(
                                        engine,
                                        state,
                                        wctx,
                                        outbuf,
                                        arrival,
                                        &frame.req,
                                        frame.deadline_us,
                                    ) {
                                        *closing = true;
                                    }
                                    trace::clear_current();
                                }
                            }
                        }
                        Err(e) => {
                            flush_batch(engine, state, wctx, outbuf, batch);
                            state.counters.note_malformed();
                            let message = format!("malformed frame: {e}");
                            encode_error(&message, outbuf);
                            *closing = true;
                        }
                    }
                }
                Err(WireError::TooLarge) => {
                    // Oversized frame: FrameBuf discards the body and
                    // resynchronizes, so answer and keep the connection.
                    progressed = true;
                    flush_batch(engine, state, wctx, outbuf, batch);
                    state.counters.note_oversized();
                    encode_error("frame exceeds size limit", outbuf);
                }
                Err(e) => {
                    // Corrupt length prefix: there is no resynchronizing.
                    flush_batch(engine, state, wctx, outbuf, batch);
                    state.counters.note_malformed();
                    let message = format!("unrecoverable framing error: {e}");
                    encode_error(&message, outbuf);
                    *closing = true;
                }
            }
        }
        flush_batch(engine, state, wctx, outbuf, batch);
        progressed
    }

    fn flush_inner(&mut self) -> FlushState {
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
                    self.last_write_progress = Instant::now();
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

/// The admission prologue every decoded request passes exactly once,
/// whatever its verb: deadline pre-check (a request whose budget expired
/// while it queued never reaches the engine; the control plane is exempt),
/// then the brownout decision on this pump pass's queue depth — so a batch
/// never smuggles work past the controller. `Err` is the rejection's
/// answer. The reject path is timed into the shed counters: the overload
/// soak asserts its mean stays under 10 µs.
fn admit(
    state: &ServerState,
    wctx: &WorkerCtx,
    arrival: Instant,
    req: &Request<'_>,
    deadline_us: Option<u32>,
    trace_id: u64,
) -> Result<(), Response<'static>> {
    let t0 = Instant::now();
    let t0_ns = stamp(trace_id);
    let class = classify(req);
    if let Some(budget_us) = deadline_us {
        if class != VerbClass::Control && expired(arrival, budget_us) {
            state.counters.note_deadline_pre();
            return Err(Response::DeadlineExceeded);
        }
    }
    if let Err(cause) = state
        .brownout
        .admit(class, wctx.frames_seen, state.config.queue_limit)
    {
        let shed_ns = t0.elapsed().as_nanos() as u64;
        state.counters.note_shed(wctx.worker, cause, shed_ns);
        let health = state.brownout.state() as u8;
        span_since(
            state,
            trace_id,
            SpanKind::Shed,
            t0_ns,
            cause.index() as u64,
            u64::from(health),
        );
        return Err(Response::Overloaded { state: health });
    }
    Ok(())
}

/// Role checks for an admitted data verb, per request, at the point it
/// joins the batch. Replicas serve reads and redirect writes to the
/// primary (the replication stream is a replica's only writer, so its
/// shard versions stay exactly the primary's). A primary that cannot
/// currently reach `min_acks` live replicas must not apply (much less
/// ack) new writes, including ones arriving mid-pipeline — a partitioned
/// old primary goes read-only instead of diverging.
fn role_check(state: &ServerState, routed: Routed) -> PendingState {
    if routed.is_write() {
        if state.is_replica() {
            return PendingState::NotPrimary;
        }
        if let Some(feed) = state.repl_feed() {
            if feed.fenced() {
                feed.counters().note_fenced_reject();
                return PendingState::Ready(Response::Error {
                    message: "primary fenced: insufficient live replicas",
                });
            }
        }
    }
    PendingState::Exec(routed)
}

/// Takes the load plan's SlowStore draw for one executed request.
fn draw_slow_store(state: &ServerState, wctx: &WorkerCtx) {
    if let Some(plan) = &state.config.load_plan {
        if let Some(LoadFault::SlowStore(d)) = plan.draw_store(wctx.worker as u64) {
            std::thread::sleep(d);
        }
    }
}

/// Executes and answers the pending batch — the one place a data verb
/// meets the store, the WAL and the replication gate. One critical
/// section per shard-group via [`crate::ShardedStore::execute_batch`]
/// (a `BatchExec` span per group, a `StoreOp` span per request), then per
/// request, in arrival order: wait for its own WAL barrier, publish or
/// wait out `min_acks`, re-check its deadline, encode. No-op on an empty
/// batch.
fn flush_batch(
    engine: &Engine<'_>,
    state: &ServerState,
    wctx: &mut WorkerCtx,
    outbuf: &mut Vec<u8>,
    batch: &mut BatchBufs,
) {
    let BatchBufs {
        pending,
        routed,
        exec_idx,
        scratch,
    } = batch;
    if pending.is_empty() {
        return;
    }
    // Route the executable subset; rejected entries keep their slot in
    // `pending` and only participate in response encoding below.
    routed.clear();
    exec_idx.clear();
    for (i, p) in pending.iter().enumerate() {
        if let PendingState::Exec(r) = p.state {
            routed.push(r);
            exec_idx.push(i);
        }
    }
    // One fault draw per executed request.
    for _ in 0..routed.len() {
        draw_slow_store(state, wctx);
    }
    let feed = if state.is_replica() {
        None
    } else {
        state.repl_feed()
    };
    let wal = state.wal().map(|w| w.as_ref());
    let outcomes =
        state
            .store
            .execute_batch(engine, routed, wal, scratch, |shard, positions, run| {
                // The group's engine section runs under the first sampled
                // request's trace id, so Section/HtmAttempt spans attach
                // to a real request; the BatchExec span marks the whole
                // group and carries its size.
                let parent = positions
                    .iter()
                    .map(|&p| pending[exec_idx[p]].trace_id)
                    .find(|&id| id != 0)
                    .unwrap_or(0);
                let t0_ns = stamp(parent);
                let group_t0 = Instant::now();
                trace::set_current(parent);
                run();
                trace::clear_current();
                let group_ns = group_t0.elapsed().as_nanos() as u64;
                let n = positions.len() as u64;
                // Engine latency only feeds the brownout EWMA (the barrier
                // waits below are deliberate batching, not overload); the
                // group's cost is attributed evenly across its requests so
                // the controller sees the amortized per-request load.
                let per_req_ns = group_ns / n.max(1);
                for &p in positions {
                    let pr = &pending[exec_idx[p]];
                    wctx.lat_sum_ns += per_req_ns;
                    wctx.lat_count += 1;
                    state.counters.note_executed(wctx.worker, per_req_ns);
                    if pr.trace_id != 0 {
                        state.rt.tracer().push(Span {
                            trace_id: pr.trace_id,
                            kind: SpanKind::StoreOp,
                            start_ns: t0_ns,
                            dur_ns: group_ns,
                            a: pr.verb as u64,
                            b: 1,
                        });
                    }
                }
                if parent != 0 {
                    state.rt.tracer().push(Span {
                        trace_id: parent,
                        kind: SpanKind::BatchExec,
                        start_ns: t0_ns,
                        dur_ns: group_ns,
                        a: n,
                        b: u64::from(shard),
                    });
                }
                state.counters.note_batch(n);
            });
    // Epilogue + response encode, in arrival order. The WAL wait and the
    // replication gate stay per-record: each mutation's ack waits for
    // exactly its own barrier.
    let mut outcomes = outcomes.iter();
    for p in pending.drain(..) {
        let out = match p.state {
            PendingState::Ready(resp) => {
                encode_response(&resp, outbuf);
                continue;
            }
            PendingState::NotPrimary => {
                let hint = state.upstream_hint();
                encode_response(&Response::NotPrimary { hint: &hint }, outbuf);
                continue;
            }
            PendingState::Exec(_) => outcomes.next().expect("one outcome per routed entry"),
        };
        let out_start = outbuf.len();
        // Set when the write applied but must not be acknowledged.
        let mut failure: Option<&'static str> = None;
        // Ack-after-barrier: the response for a mutating verb is not
        // encoded until its WAL record is inside an fsynced prefix. The
        // in-memory effect is already applied; if the log died, say so
        // instead of acknowledging a write that may not survive a crash.
        if let (Some(ticket), Some(wal)) = (out.ticket, wal) {
            let wait_t0 = stamp(p.trace_id);
            let waited = wal.wait(ticket);
            let number = ticket.number();
            span_since(state, p.trace_id, SpanKind::WalCommit, wait_t0, number, 0);
            if waited.is_err() {
                failure = Some("write-ahead log failed; write not durable");
            }
        } else if let (Some(feed), Some(staged)) = (feed, out.staged.as_ref()) {
            // No-WAL primary: the applied write is this deployment's
            // durable prefix (there is nothing stronger to wait for), so
            // it enters the feed here.
            feed.publish(staged.shard, std::slice::from_ref(staged));
        }
        // Replication gate: with `min_acks` configured, the ack is
        // withheld until enough replicas confirmed this record's version
        // (or the primary turns out to be fenced — then the client must
        // not treat the write as accepted, even though it applied
        // locally: the promoted side's history wins).
        if let (Some(feed), Some(staged), None) = (feed, out.staged.as_ref(), failure) {
            failure =
                match feed.wait_replicated(staged.shard, staged.seq, state.config.repl_ack_timeout)
                {
                    Ok(()) => None,
                    Err(ReplWaitError::Fenced) => Some("primary fenced: write not acknowledged"),
                    Err(ReplWaitError::Timeout) => {
                        Some("replication timed out: write not acknowledged")
                    }
                };
        }
        // Deadline post-check: the effect is already applied (the engine
        // ran), but the client stopped waiting — tell it so instead of
        // shipping a result it will ignore. Documented semantics:
        // deadlines bound *waiting*, not *effects*.
        let resp_t0 = stamp(p.trace_id);
        match (p.deadline_us, failure) {
            (Some(budget_us), _) if expired(p.arrival, budget_us) => {
                state.counters.note_deadline_post();
                encode_response(&Response::DeadlineExceeded, outbuf);
            }
            (_, Some(message)) => encode_response(&Response::Error { message }, outbuf),
            (_, None) => encode_response(&out.resp, outbuf),
        }
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
}

/// Executes one admitted verb that cannot join a batch: the control plane
/// and SCAN (cross-shard, one read section per shard, no record to log or
/// replicate).
///
/// Returns `false` when the connection must start closing (SHUTDOWN).
/// Free function (not a method) so the borrow of `outbuf` stays disjoint
/// from the rest of the connection.
fn execute_admitted(
    engine: &Engine<'_>,
    state: &ServerState,
    wctx: &mut WorkerCtx,
    outbuf: &mut Vec<u8>,
    arrival: Instant,
    req: &Request<'_>,
    deadline_us: Option<u32>,
) -> bool {
    let trace_id = trace::current();
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
        Request::Flush => {
            // Durability barrier: returns once everything staged before it
            // is fsynced. Without a WAL the barrier is vacuous.
            let resp = match state.wal() {
                Some(wal) => match wal.flush() {
                    Ok(durable_lsn) => Response::Flushed { durable_lsn },
                    Err(_) => Response::Error {
                        message: "write-ahead log failed",
                    },
                },
                None => Response::Flushed { durable_lsn: 0 },
            };
            encode_response(&resp, outbuf);
            true
        }
        Request::Shutdown => {
            state.request_shutdown();
            encode_response(&Response::Bye, outbuf);
            false
        }
        Request::Scan { limit } => {
            let exec_start = Instant::now();
            draw_slow_store(state, wctx);
            let pairs = state.store.scan(engine, *limit as usize);
            let exec_ns = exec_start.elapsed().as_nanos() as u64;
            let verb = verb_index(req) as u64;
            resp_t0 = span_since(state, trace_id, SpanKind::StoreOp, resp_t0, verb, 0);
            wctx.lat_sum_ns += exec_ns;
            wctx.lat_count += 1;
            state.counters.note_executed(wctx.worker, exec_ns);
            // Same deadline post-check as the batch path.
            match deadline_us {
                Some(budget_us) if expired(arrival, budget_us) => {
                    state.counters.note_deadline_post();
                    encode_response(&Response::DeadlineExceeded, outbuf);
                }
                _ => encode_response(&Response::Entries { pairs }, outbuf),
            }
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

/// Handles one replication verb on this connection.
///
/// Free function: `outbuf`, the subscription slot and the closing flag
/// come in as separate `&mut`s from the connection `process_frames`
/// destructured, so they stay disjoint from the input buffer `body`
/// borrows.
fn handle_repl_frame(
    engine: &Engine<'_>,
    state: &ServerState,
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
            if let Some(old) = repl.take() {
                feed.unsubscribe(old.id);
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

/// Answers `message` as an `Error` response.
fn encode_error(message: &str, outbuf: &mut Vec<u8>) {
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
fn stamp(trace_id: u64) -> u64 {
    if trace_id != 0 {
        trace::now_ns()
    } else {
        0
    }
}

/// Records a span that began at `start_ns` (a [`stamp`]) and ends now,
/// returning now. No-op for an unsampled request.
fn span_since(
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

/// Whether `budget_us` microseconds have fully elapsed since `arrival`.
/// A zero budget is always expired — the probe clients use that to test
/// the pre-check without a race.
fn expired(arrival: Instant, budget_us: u32) -> bool {
    arrival.elapsed() >= Duration::from_micros(u64::from(budget_us))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{Ipv4Addr, TcpListener};

    /// Every combination of the four facts [`Conn::interest`] reads,
    /// against the events [`Conn::pump`] would act on in that state.
    #[test]
    fn interest_is_what_the_next_pump_would_touch() {
        const HIGH_WATER: usize = 64;
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).expect("bind");
        let _client = TcpStream::connect(listener.local_addr().unwrap()).expect("connect");
        let (stream, _) = listener.accept().expect("accept");
        let mut conn = Conn::new(stream, None);
        let feed = crate::ReplFeed::new(crate::ReplConfig::default(), &[0]);
        let sub = feed.subscribe(&[0]);
        for case in 0..16u32 {
            let [closing, at_high_water, pending_output, repl_sub] =
                [0, 1, 2, 3].map(|bit| case & (1 << bit) != 0);
            conn.closing = closing;
            conn.inbuf = FrameBuf::new();
            if at_high_water {
                conn.inbuf.extend(&[0; HIGH_WATER]);
            }
            conn.outbuf.clear();
            conn.outpos = 0;
            if pending_output {
                conn.outbuf.push(0);
            }
            conn.repl = repl_sub.then(|| ReplSub::new(sub));

            let read = if closing || at_high_water { 0 } else { POLLIN };
            let write = if pending_output { POLLOUT } else { 0 };
            assert_eq!(
                conn.interest(HIGH_WATER),
                read | write,
                "closing={closing} high_water={at_high_water} \
                 pending_output={pending_output} repl_sub={repl_sub}"
            );
            // What keeps a subscriber's owner from waiting on it at all.
            assert_eq!(conn.is_repl_sub(), repl_sub);
            assert_eq!(
                conn.write_deadline(Duration::from_secs(5)).is_some(),
                pending_output
            );
        }
        // One byte under the mark still reads, as `pump` step 2 does.
        conn.closing = false;
        conn.repl = None;
        conn.outbuf.clear();
        conn.inbuf = FrameBuf::new();
        conn.inbuf.extend(&[0; HIGH_WATER - 1]);
        assert_eq!(conn.interest(HIGH_WATER), POLLIN);
    }

    /// `pump` stops reading at the first short read. Neither the rest of
    /// a frame a seeded plan split nor the EOF behind a client's last
    /// frame may be lost to that: the next pass reads them.
    #[test]
    fn a_short_read_ends_the_pass_and_the_next_one_reads_on() {
        use gocc_faultplane::TransportMix;
        use gocc_wire::encode_request;

        gocc_gosync::set_procs(8);
        let mut frame = Vec::new();
        encode_request(&Request::Get { key: b"absent" }, &mut frame);
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
        let mut conn = Conn::new(stream, Some(Arc::clone(&plan)));
        let mut wctx = WorkerCtx {
            worker: 0,
            frames_seen: 0,
            lat_sum_ns: 0,
            lat_count: 0,
        };

        client.write_all(&frame).expect("send");
        let mut passes = 0;
        while state.counters.total_requests() < 1 {
            passes += 1;
            assert!(passes < 10_000, "the split frame was never completed");
            let outcome = conn.pump(engine, &state, &mut wctx);
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
        assert_eq!(state.counters.total_requests(), 2);
        drop(conn);
        got.clear();
        client.read_to_end(&mut got).expect("recv");
        assert_eq!(got, expected);
    }
}
