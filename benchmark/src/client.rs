//! The wire client: one thread driving one or more connections, either
//! with a fixed number of frames outstanding (closed loop) or on a fixed
//! schedule (open loop), and checking every response against a model.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use gocc_telemetry::trace::now_ns;
use gocc_wire::{decode_response, encode_request_v2, FrameBuf, Response};

use crate::ops::{self, KeyTable, Op, Verb};
use crate::procfs;
use crate::spans::{SpanLog, SpanRec};
use crate::window::{self, Mark, Track, Window};

/// A paced send counts as late beyond this many nanoseconds past due.
const LATE_NS: u64 = 20_000;
/// Most requests the paced driver lets stand unanswered. After a stall
/// it catches up by sending every overdue request at once; a stall of
/// 128 ms (seen on the shared sandbox) would then put more frames in one
/// pump pass than the server's admission limit of 256 and draw
/// `Overloaded`. Held-back requests are still timed from their due time.
const PACED_MAX_OUTSTANDING: usize = 64;

/// What the server must answer to one request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Expect {
    Value { found: bool, value: u64 },
    Done,
    Deleted { existed: bool },
    Counter { value: u64 },
}

impl Expect {
    fn matches(&self, resp: &Response<'_>) -> bool {
        match (*self, resp) {
            (Expect::Value { found, value }, Response::Value { found: f, value: v }) => {
                found == *f && value == *v
            }
            (Expect::Done, Response::Done) => true,
            (Expect::Deleted { existed }, Response::Deleted { existed: e }) => existed == *e,
            (Expect::Counter { value }, Response::Counter { value: v }) => value == *v,
            _ => false,
        }
    }
}

/// The store as the client knows it must be. Exact because each key is
/// only ever touched by one connection, and a connection's requests are
/// executed in the order they were sent (the single-connection FIFO
/// model): applying each request here at submit time gives the response
/// the server owes.
pub struct Model {
    values: Vec<Option<u64>>,
}

impl Model {
    #[must_use]
    pub fn new(table_len: usize) -> Model {
        Model {
            values: vec![None; table_len],
        }
    }

    fn apply(&mut self, op: &Op) -> Expect {
        let slot = &mut self.values[op.key as usize];
        match op.verb {
            Verb::Get => Expect::Value {
                found: slot.is_some(),
                value: slot.unwrap_or(0),
            },
            Verb::Set => {
                *slot = Some(ops::set_word(op));
                Expect::Done
            }
            Verb::Incr => {
                let value = slot.unwrap_or(0).wrapping_add(u64::from(op.value));
                *slot = Some(value);
                Expect::Counter { value }
            }
            Verb::Del => Expect::Deleted {
                existed: slot.take().is_some(),
            },
        }
    }

    /// The value each key must hold now (`None` = absent).
    #[must_use]
    pub fn values(&self) -> &[Option<u64>] {
        &self.values
    }
}

struct Pending {
    /// Submit time (closed loop) or due time (open loop).
    since_ns: u64,
    expect: Expect,
    verb: Verb,
}

struct Conn {
    stream: TcpStream,
    inbuf: FrameBuf,
    out: Vec<u8>,
    out_pos: usize,
    inflight: VecDeque<Pending>,
    /// Position in this connection's op stream.
    pos: usize,
}

impl Conn {
    /// Writes as much queued output as the socket takes. Returns whether
    /// any byte moved.
    fn flush(&mut self) -> io::Result<bool> {
        let mut moved = false;
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.out_pos += n;
                    moved = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        }
        Ok(moved)
    }

    /// Reads whatever the socket holds into the frame buffer. Returns the
    /// byte count (0 = nothing there yet).
    fn read_some(&mut self) -> io::Result<usize> {
        let mut chunk = [0u8; 16 * 1024];
        match self.stream.read(&mut chunk) {
            Ok(0) => Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => {
                self.inbuf.extend(&chunk[..n]);
                Ok(n)
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(0),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(0),
            Err(e) => Err(e),
        }
    }
}

/// What the client thread does while no byte can move.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Wait {
    /// Keep polling the sockets: no wake-up latency in the measurement.
    /// Right while client and server threads together are no more than
    /// the CPUs; the client then has a seat of its own (`procfs`). On a
    /// one-CPU box it yields between looks.
    Spin,
    /// Sleep in `ppoll(2)` until a response arrives. Right when the server
    /// alone can keep every CPU busy, as `durable_w`'s worker and log
    /// syncer can on two: a spinning client would compete with the
    /// threads it is measuring.
    Block,
}

/// `struct pollfd` of `poll(2)`.
#[repr(C)]
struct PollFd {
    fd: std::ffi::c_int,
    events: std::ffi::c_short,
    revents: std::ffi::c_short,
}

/// `struct timespec` as Linux lays it out on 64-bit targets.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: std::ffi::c_short = 0x001;

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: std::ffi::c_ulong,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> std::ffi::c_int;
}

/// Sleeps until one of `conns` is readable or `timeout_ns` has passed.
fn wait_readable(conns: &[Conn], timeout_ns: u64) {
    use std::os::fd::AsRawFd;
    let mut fds: Vec<PollFd> = conns
        .iter()
        .map(|c| PollFd {
            fd: c.stream.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        })
        .collect();
    let timeout = Timespec {
        tv_sec: (timeout_ns / 1_000_000_000) as i64,
        tv_nsec: (timeout_ns % 1_000_000_000) as i64,
    };
    // SAFETY: `fds` points to `fds.len()` initialised `pollfd` structures
    // and `timeout` to a valid `timespec`, both outliving the call; every
    // descriptor is an open socket owned by `conns`; a null signal mask
    // leaves the mask alone. `ppoll` writes nothing but the `revents`
    // fields. The result is not needed: the caller looks at every socket
    // again.
    unsafe {
        ppoll(
            fds.as_mut_ptr(),
            fds.len() as std::ffi::c_ulong,
            &timeout,
            std::ptr::null(),
        );
    }
}

/// How long a driver runs.
#[derive(Clone, Copy, Debug)]
pub enum Until {
    /// A fixed number of requests (preload, warm-up): nothing is timed.
    Ops(u64),
    /// A timed window of this many seconds, cut into half-second slices.
    Seconds(f64),
}

/// What one driver run produced.
#[derive(Default)]
pub struct RunOut {
    pub window: Window,
    /// Paced sends, and how many of them left more than 20 µs late.
    pub sends: u64,
    pub late_sends: u64,
}

/// Records one window: latency samples as responses arrive, and a mark
/// at each slice boundary. Inert for untimed runs.
struct Recorder<'c> {
    t0: u64,
    slice_ns: u64,
    slices: usize,
    track: Track,
    /// Cumulative CPU of the threads under test, read at each boundary.
    cpu_ns: &'c mut dyn FnMut() -> u64,
    cpu0: u64,
}

impl<'c> Recorder<'c> {
    fn new(t0: u64, until: Until, cpu_ns: &'c mut dyn FnMut() -> u64) -> Recorder<'c> {
        let (slices, slice_ns, samples) = match until {
            Until::Seconds(s) => {
                let n = window::slices_in(s);
                (n, (s * 1e9 / n as f64) as u64, (s * 200_000.0) as usize)
            }
            Until::Ops(_) => (0, u64::MAX / 2, 0),
        };
        let cpu0 = if slices > 0 { cpu_ns() } else { 0 };
        Recorder {
            t0,
            slice_ns,
            slices,
            track: Track::with_capacity(slices, samples),
            cpu_ns,
            cpu0,
        }
    }

    fn timed(&self) -> bool {
        self.slices > 0
    }

    fn end_ns(&self) -> u64 {
        self.t0
            .saturating_add(self.slice_ns.saturating_mul(self.slices.max(1) as u64))
    }

    fn mark(&mut self, now: u64, completed: u64) {
        self.track.marks.push(Mark {
            t_s: (now - self.t0) as f64 / 1e9,
            ops: completed,
            samples: self.track.lat_ns.len(),
            cpu_ns: (self.cpu_ns)().saturating_sub(self.cpu0),
        });
    }

    /// Called whenever responses were taken: closes every slice whose
    /// boundary has passed.
    #[inline]
    fn note(&mut self, now: u64, completed: u64) {
        if self.track.marks.len() < self.slices
            && now >= self.t0 + self.slice_ns * (self.track.marks.len() as u64 + 1)
        {
            self.mark(now, completed);
        }
    }

    fn finish(mut self, now: u64, completed: u64) -> Window {
        while self.track.marks.len() < self.slices {
            self.mark(now, completed);
        }
        Window::from_tracks(&[self.track], (now - self.t0) as f64 / 1e9)
    }
}

/// One client thread's connections, its model of the store, and its
/// running totals.
pub struct Client<'a> {
    conns: Vec<Conn>,
    streams: &'a [Vec<Op>],
    keys: &'a KeyTable,
    pub model: Model,
    pub attempted: u64,
    pub failed: u64,
    /// Set by the self-test: the next GET is expected to return a value
    /// it cannot, which the response check must then report.
    pub corrupt_next_get: bool,
    reported: u32,
}

impl<'a> Client<'a> {
    /// Opens one connection per stream to `addr`.
    pub fn connect(
        addr: SocketAddr,
        streams: &'a [Vec<Op>],
        keys: &'a KeyTable,
    ) -> io::Result<Client<'a>> {
        let mut conns = Vec::with_capacity(streams.len());
        for _ in streams {
            let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
            stream.set_nodelay(true)?;
            stream.set_nonblocking(true)?;
            conns.push(Conn {
                stream,
                inbuf: FrameBuf::new(),
                out: Vec::with_capacity(16 * 1024),
                out_pos: 0,
                inflight: VecDeque::with_capacity(64),
                pos: 0,
            });
        }
        Ok(Client {
            conns,
            streams,
            keys,
            model: Model::new(keys.words.len()),
            attempted: 0,
            failed: 0,
            corrupt_next_get: false,
            reported: 0,
        })
    }

    /// The key table requests are built from.
    #[must_use]
    pub fn keys(&self) -> &'a KeyTable {
        self.keys
    }

    /// SETs every regular key to its preload value over the first
    /// connection, `depth` frames at a time, and waits for every answer.
    pub fn preload(&mut self, keys: u32, depth: usize) -> io::Result<()> {
        let mut next = 0u32;
        loop {
            while next < keys && self.conns[0].inflight.len() < depth {
                let op = Op {
                    verb: Verb::Set,
                    key: next,
                    value: 0,
                };
                self.submit(0, &op, 0);
                next += 1;
            }
            let mut moved = self.conns[0].flush()?;
            if self.conns[0].read_some()? > 0 {
                self.take_responses(0, 0, None)?;
                moved = true;
            }
            if next == keys && self.conns[0].inflight.is_empty() {
                return Ok(());
            }
            if !moved {
                std::thread::yield_now();
            }
        }
    }

    /// Queues `op` on connection `c`: model first, then the frame.
    fn submit(&mut self, c: usize, op: &Op, since_ns: u64) {
        let mut expect = self.model.apply(op);
        if self.corrupt_next_get {
            if let Expect::Value { found, value } = expect {
                expect = Expect::Value {
                    found,
                    value: value ^ 1,
                };
                self.corrupt_next_get = false;
            }
        }
        let conn = &mut self.conns[c];
        encode_request_v2(&ops::request(op, self.keys), None, &mut conn.out);
        conn.inflight.push_back(Pending {
            since_ns,
            expect,
            verb: op.verb,
        });
        self.attempted += 1;
    }

    fn next_op(&mut self, c: usize) -> Op {
        let stream = &self.streams[c];
        let conn = &mut self.conns[c];
        let op = stream[conn.pos];
        conn.pos = (conn.pos + 1) % stream.len();
        op
    }

    /// Decodes every complete frame connection `c` holds and checks it
    /// against the oldest outstanding request. Returns how many arrived.
    fn take_responses(
        &mut self,
        c: usize,
        now: u64,
        mut track: Option<&mut Track>,
    ) -> io::Result<u64> {
        let conn = &mut self.conns[c];
        let mut n = 0;
        loop {
            let body = match conn.inbuf.next_frame() {
                Ok(Some(body)) => body,
                Ok(None) => break,
                Err(e) => return Err(io::Error::new(io::ErrorKind::InvalidData, e)),
            };
            let resp =
                decode_response(body).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            let Some(pending) = conn.inflight.pop_front() else {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "a response arrived with no request outstanding",
                ));
            };
            if !pending.expect.matches(&resp) {
                self.failed += 1;
                if self.reported < 5 {
                    self.reported += 1;
                    eprintln!(
                        "benchmark: wrong response: expected {:?}, got {resp:?}",
                        pending.expect
                    );
                }
            }
            if let Some(track) = track.as_deref_mut() {
                track.sample(now.saturating_sub(pending.since_ns), pending.verb);
            }
            n += 1;
        }
        Ok(n)
    }

    fn outstanding(&self) -> usize {
        self.conns.iter().map(|c| c.inflight.len()).sum()
    }

    /// Closed loop: keeps `depth` frames outstanding on every connection
    /// until `until`, then drains. `idle` runs whenever a round moved no
    /// byte (the traced pass drains the server's recorder there). With
    /// `spans`, each round's encode, write, wait and decode are recorded.
    pub fn run_pipelined(
        &mut self,
        depth: usize,
        wait: Wait,
        until: Until,
        idle: &mut dyn FnMut(u64),
        cpu_ns: &mut dyn FnMut() -> u64,
        mut spans: Option<&mut SpanLog>,
    ) -> io::Result<RunOut> {
        let mut out = RunOut::default();
        let t0 = now_ns();
        let mut rec = Recorder::new(t0, until, cpu_ns);
        let timed = rec.timed();
        let (mut submitted, mut completed) = (0u64, 0u64);
        let mut round = 0u64;
        let mut wait_from = t0;
        loop {
            let now = now_ns();
            let submitting = match until {
                Until::Ops(n) => submitted < n,
                Until::Seconds(_) => now < rec.end_ns(),
            };
            let mut moved = false;
            for c in 0..self.conns.len() {
                if submitting {
                    let before = self.conns[c].inflight.len();
                    while self.conns[c].inflight.len() < depth {
                        if let Until::Ops(n) = until {
                            if submitted >= n {
                                break;
                            }
                        }
                        let op = self.next_op(c);
                        self.submit(c, &op, now);
                        submitted += 1;
                    }
                    if let Some(log) = spans.as_deref_mut() {
                        if self.conns[c].inflight.len() > before {
                            let end = now_ns();
                            log.push(span(round, "client_encode", now, end));
                        }
                    }
                }
                let w0 = if spans.is_some() { now_ns() } else { 0 };
                if self.conns[c].flush()? {
                    moved = true;
                    if let Some(log) = spans.as_deref_mut() {
                        let end = now_ns();
                        log.push(span(round, "client_write", w0, end));
                        wait_from = end;
                    }
                }
                if self.conns[c].read_some()? > 0 {
                    moved = true;
                    let arrived = now_ns();
                    completed +=
                        self.take_responses(c, arrived, timed.then_some(&mut rec.track))?;
                    rec.note(arrived, completed);
                    if let Some(log) = spans.as_deref_mut() {
                        log.push(span(round, "client_wait", wait_from, arrived));
                        log.push(span(round, "client_decode", arrived, now_ns()));
                        wait_from = now_ns();
                    }
                }
            }
            if !submitting && self.outstanding() == 0 {
                break;
            }
            if moved {
                round += 1;
            } else {
                idle(now);
                match wait {
                    // On a seat of its own the client keeps the CPU: a
                    // yield would hand it to the keep-awake spinner until
                    // the next tick (4 ms a round trip, measured).
                    Wait::Spin if procfs::cpus().len() > 1 => std::hint::spin_loop(),
                    Wait::Spin => std::thread::yield_now(),
                    Wait::Block => wait_readable(&self.conns, 1_000_000),
                }
            }
        }
        out.window = rec.finish(now_ns(), completed);
        Ok(out)
    }

    /// Open loop on the first connection: one request every `period_ns`,
    /// sent when due whether or not earlier ones were answered (up to
    /// [`PACED_MAX_OUTSTANDING`]), each timed from the instant it was
    /// due. Sleeps to within 120 µs of the next due time, then spins.
    pub fn run_paced(
        &mut self,
        period_ns: u64,
        until: Until,
        idle: &mut dyn FnMut(u64),
        cpu_ns: &mut dyn FnMut() -> u64,
        mut spans: Option<&mut SpanLog>,
    ) -> io::Result<RunOut> {
        let mut out = RunOut::default();
        let total = match until {
            Until::Ops(n) => n,
            Until::Seconds(s) => (s * 1e9 / period_ns as f64) as u64,
        };
        let t0 = now_ns() + 200_000;
        let mut rec = Recorder::new(t0, until, cpu_ns);
        let timed = rec.timed();
        let (mut sent, mut completed) = (0u64, 0u64);
        let mut wait_from = t0;
        loop {
            let now = now_ns();
            let due = t0 + sent * period_ns;
            if sent < total && now >= due && self.conns[0].inflight.len() < PACED_MAX_OUTSTANDING {
                let op = self.next_op(0);
                self.submit(0, &op, due);
                let encoded = if spans.is_some() { now_ns() } else { 0 };
                // A request frame is a few dozen bytes; the socket takes
                // it at once unless the server has stopped reading.
                while !self.conns[0].out.is_empty() {
                    self.conns[0].flush()?;
                }
                if timed {
                    out.sends += 1;
                    if now - due > LATE_NS {
                        out.late_sends += 1;
                    }
                }
                if let Some(log) = spans.as_deref_mut() {
                    let end = now_ns();
                    log.push(span(sent, "client_encode", now, encoded));
                    log.push(span(sent, "client_write", encoded, end));
                    wait_from = end;
                }
                sent += 1;
                continue;
            }
            if self.conns[0].inflight.is_empty() {
                if sent >= total {
                    break;
                }
                let gap = due - now;
                if gap > 150_000 {
                    idle(now);
                    let left = due.saturating_sub(now_ns());
                    if left > 150_000 {
                        std::thread::sleep(Duration::from_nanos(left - 120_000));
                    }
                } else {
                    std::hint::spin_loop();
                }
                continue;
            }
            if self.conns[0].read_some()? > 0 {
                let arrived = now_ns();
                let id = completed;
                completed += self.take_responses(0, arrived, timed.then_some(&mut rec.track))?;
                rec.note(arrived, completed);
                if let Some(log) = spans.as_deref_mut() {
                    log.push(span(id, "client_wait", wait_from, arrived));
                    log.push(span(id, "client_decode", arrived, now_ns()));
                }
            } else {
                std::hint::spin_loop();
            }
        }
        out.window = rec.finish(now_ns(), completed);
        Ok(out)
    }
}

fn span(trace_id: u64, kind: &'static str, start_ns: u64, end_ns: u64) -> SpanRec {
    SpanRec {
        trace_id,
        kind,
        start_ns,
        dur_ns: end_ns.saturating_sub(start_ns),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_model_answers_like_the_store_would() {
        let mut m = Model::new(4);
        let op = |verb, key, value| Op { verb, key, value };
        assert_eq!(
            m.apply(&op(Verb::Get, 1, 0)),
            Expect::Value {
                found: false,
                value: 0
            }
        );
        assert_eq!(m.apply(&op(Verb::Set, 1, 9)), Expect::Done);
        assert_eq!(
            m.apply(&op(Verb::Get, 1, 0)),
            Expect::Value {
                found: true,
                value: (1 << 32) | 9
            }
        );
        assert_eq!(m.apply(&op(Verb::Incr, 3, 5)), Expect::Counter { value: 5 });
        assert_eq!(m.apply(&op(Verb::Incr, 3, 2)), Expect::Counter { value: 7 });
        assert_eq!(
            m.apply(&op(Verb::Del, 1, 0)),
            Expect::Deleted { existed: true }
        );
        assert_eq!(
            m.apply(&op(Verb::Del, 1, 0)),
            Expect::Deleted { existed: false }
        );
        assert_eq!(m.values(), &[None, None, None, Some(7)]);
    }

    #[test]
    fn a_wrong_value_or_an_error_frame_does_not_match() {
        let e = Expect::Value {
            found: true,
            value: 4,
        };
        assert!(e.matches(&Response::Value {
            found: true,
            value: 4
        }));
        assert!(!e.matches(&Response::Value {
            found: true,
            value: 5
        }));
        assert!(!e.matches(&Response::Overloaded { state: 2 }));
        assert!(!e.matches(&Response::DeadlineExceeded));
        assert!(!e.matches(&Response::Error { message: "x" }));
    }

    #[test]
    fn slices_are_marked_at_their_boundaries() {
        let mut cpu = 0u64;
        let mut read_cpu = || {
            cpu += 100;
            cpu
        };
        // One second from t0 = 1000 ns: two half-second slices.
        let mut r = Recorder::new(1_000, Until::Seconds(1.0), &mut read_cpu);
        r.track.sample(700, Verb::Get);
        r.note(400_000_000, 3); // before the first boundary
        r.note(500_002_000, 10);
        r.track.sample(900, Verb::Set);
        let w = r.finish(1_000_001_000, 30);
        assert_eq!(w.completed, 30);
        assert_eq!(w.slices.len(), 2);
        assert_eq!((w.slices[0].ops, w.slices[1].ops), (10, 20));
        assert_eq!(w.slices[0].lat_ns, vec![700]);
        assert_eq!(w.slices[1].lat_ns, vec![900]);
        assert_eq!(w.slices[0].cpu_ns, 100);
    }

    #[test]
    fn untimed_runs_record_nothing() {
        let mut read_cpu = || panic!("an untimed run reads no CPU time");
        let mut r = Recorder::new(5, Until::Ops(10), &mut read_cpu);
        assert!(!r.timed());
        r.note(1_000_000_000_000, 5);
        let w = r.finish(2_000_000_000_000, 10);
        assert!(w.slices.is_empty());
    }
}
