//! The one client: a ticketed, non-blocking request pipe.
//!
//! [`Pipe::submit`] encodes a v2 frame, keeps its bytes and hands back a
//! [`Ticket`]; [`Pipe::pump`] writes what the transport accepts and reads
//! what has arrived; [`Pipe::answer`] yields each `(Ticket, Response)` in
//! submission order, once the response has passed the one shape check a
//! response gets (`answers`). The pipe never reconnects on its own:
//! after an I/O failure the caller opens a new transport and calls
//! [`Pipe::reset`], which re-sends, in order, every unanswered ticket
//! whose verb may be replayed ([`Request::replayable`]) and returns the
//! others as lost. Every ticket therefore ends exactly once: answered, or
//! lost and never re-sent.
//!
//! Waiting belongs to the caller. On a blocking transport with a read
//! timeout, [`Pipe::call`] is a depth-1 round trip; on a non-blocking one
//! the caller pumps on its own schedule.

use std::collections::VecDeque;
use std::io::{self, Read, Write};

use crate::*;

/// A submitted request's place in its pipe's submission order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ticket(u64);

struct Unanswered {
    ticket: Ticket,
    op: u8,
    len: usize,
}

/// A request pipe over one transport. See the module docs.
pub struct Pipe<S> {
    stream: S,
    /// The frames of every unanswered ticket, in order, from `head`.
    log: Vec<u8>,
    head: usize,
    /// How far into `log` the transport has accepted bytes.
    written: usize,
    unanswered: VecDeque<Unanswered>,
    inbuf: FrameBuf,
    next: u64,
}

impl Request<'_> {
    /// Whether a request whose answer was lost may be sent again. The verb
    /// alone decides: INCR would count twice, TRACE drains spans and
    /// SHUTDOWN ends the server; every other verb is idempotent.
    #[must_use]
    pub fn replayable(&self) -> bool {
        replayable(self.opcode())
    }
}

fn replayable(op: u8) -> bool {
    !matches!(op, OP_INCR | OP_TRACE | OP_SHUTDOWN)
}

/// Whether `resp` answers a request with opcode `op`: its own success
/// shape, an `Error` for any verb, or one of the retriable refusals for
/// any verb the server's admission control and roles can refuse (all but
/// HEALTH, SHUTDOWN, FLUSH and the replication verbs).
fn answers(op: u8, resp: &Response<'_>) -> bool {
    match resp {
        Response::Error { .. } => true,
        Response::Overloaded { .. }
        | Response::DeadlineExceeded
        | Response::NotPrimary { .. }
        | Response::Behind { .. } => !matches!(
            op,
            OP_HEALTH | OP_SHUTDOWN | OP_FLUSH | OP_REPL_HELLO..=OP_REPL_EPOCH
        ),
        _ => matches!(
            (op, resp),
            (OP_GET | OP_GET_S, Response::Value { .. })
                | (OP_SET, Response::Done)
                | (OP_DEL, Response::Deleted { .. })
                | (OP_INCR, Response::Counter { .. })
                | (OP_SCAN, Response::Entries { .. })
                | (OP_STATS, Response::Stats { .. })
                | (OP_SHUTDOWN, Response::Bye)
                | (OP_HEALTH, Response::Health { .. })
                | (OP_TRACE, Response::Trace { .. })
                | (OP_FLUSH, Response::Flushed { .. })
                | (OP_SET_S, Response::DoneAt { .. })
                | (OP_REPL_CANDIDATE, Response::ReplVote { .. })
                | (OP_REPL_PROMOTE | OP_REPL_EPOCH, Response::Done)
        ),
    }
}

fn invalid(what: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

impl<S: Read + Write> Pipe<S> {
    /// A pipe with nothing in flight over `stream`.
    pub fn new(stream: S) -> Self {
        Pipe {
            stream,
            log: Vec::new(),
            head: 0,
            written: 0,
            unanswered: VecDeque::new(),
            inbuf: FrameBuf::new(),
            next: 0,
        }
    }

    /// The transport.
    pub fn get_ref(&self) -> &S {
        &self.stream
    }

    /// Tickets submitted and neither answered nor lost yet.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.unanswered.len()
    }

    /// Whether queued frames wait for the transport to take them: a caller
    /// that pumps on readiness then waits for the socket to be writable.
    #[must_use]
    pub fn unsent(&self) -> bool {
        self.written < self.log.len()
    }

    /// Encodes `req` as a v2 frame carrying `deadline_us` and queues it
    /// for the next [`Pipe::pump`].
    pub fn submit(&mut self, req: &Request<'_>, deadline_us: Option<u32>) -> Ticket {
        if self.head > 0 && self.head >= self.log.len() / 2 {
            self.log.drain(..self.head);
            self.written -= self.head;
            self.head = 0;
        }
        let start = self.log.len();
        encode_request_v2(req, deadline_us, &mut self.log);
        let ticket = Ticket(self.next);
        self.next += 1;
        self.unanswered.push_back(Unanswered {
            ticket,
            op: req.opcode(),
            len: self.log.len() - start,
        });
        ticket
    }

    /// Writes as much of the queued frames as the transport accepts, then
    /// makes one read if anything is owed. `Ok(true)` when bytes arrived;
    /// `Ok(false)` when the read would block (on a blocking transport: its
    /// timeout passed). End of stream and every other I/O error are `Err`.
    pub fn pump(&mut self) -> io::Result<bool> {
        while self.written < self.log.len() {
            match self.stream.write(&self.log[self.written..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.written += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if self.unanswered.is_empty() {
            return Ok(false);
        }
        let mut buf = [0u8; 16 * 1024];
        loop {
            match self.stream.read(&mut buf) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "peer closed the connection",
                    ))
                }
                Ok(n) => {
                    self.inbuf.extend(&buf[..n]);
                    return Ok(true);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// The oldest unanswered ticket and its response, if that response has
    /// arrived. A frame that does not decode, answers nothing or has the
    /// wrong shape for its ticket is `Err(InvalidData)`; the pipe must
    /// then be reset or dropped.
    pub fn answer(&mut self) -> io::Result<Option<(Ticket, Response<'_>)>> {
        let Some(body) = self.inbuf.next_frame().map_err(invalid)? else {
            return Ok(None);
        };
        let resp = crate::decode_response(body).map_err(invalid)?;
        let Some(front) = self.unanswered.front() else {
            return Err(invalid(format!("unsolicited response {resp:?}")));
        };
        if !answers(front.op, &resp) {
            return Err(invalid(format!(
                "response {resp:?} does not answer opcode 0x{:02x}",
                front.op
            )));
        }
        let (ticket, len) = (front.ticket, front.len);
        self.unanswered.pop_front();
        self.head += len;
        self.written = self.written.max(self.head);
        if self.head == self.log.len() {
            self.log.clear();
            self.head = 0;
            self.written = 0;
        }
        Ok(Some((ticket, resp)))
    }

    /// Pumps until an answer is ready for [`Pipe::answer`]. A pump that
    /// moves nothing ends the wait with `TimedOut`, so this blocks only
    /// on a blocking transport, for at most its read timeout per pump.
    pub fn wait(&mut self) -> io::Result<()> {
        while !self.inbuf.ready() {
            if !self.pump()? {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "no response before the read timeout",
                ));
            }
        }
        Ok(())
    }

    /// One round trip on an idle pipe: submit (no deadline), wait, answer.
    pub fn call(&mut self, req: &Request<'_>) -> io::Result<Response<'_>> {
        debug_assert_eq!(self.in_flight(), 0, "call on a pipe with tickets in flight");
        self.submit(req, None);
        self.wait()?;
        match self.answer()? {
            Some((_, resp)) => Ok(resp),
            None => Err(invalid("a ready frame yielded no answer")),
        }
    }

    /// Moves the pipe onto a new transport after the old one failed.
    /// Every unanswered ticket whose verb is replayable is re-sent, in
    /// submission order; the others are returned, oldest first, as lost:
    /// they may or may not have been applied, and are never sent again.
    pub fn reset(&mut self, stream: S) -> Vec<Ticket> {
        let mut log = Vec::with_capacity(self.log.len() - self.head);
        let mut lost = Vec::new();
        let mut at = self.head;
        self.unanswered.retain(|u| {
            let frame = &self.log[at..at + u.len];
            at += u.len;
            if replayable(u.op) {
                log.extend_from_slice(frame);
            } else {
                lost.push(u.ticket);
            }
            replayable(u.op)
        });
        self.stream = stream;
        self.log = log;
        self.head = 0;
        self.written = 0;
        self.inbuf = FrameBuf::new();
        lost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_shape_check_is_strict_per_verb() {
        let value = Response::Value {
            found: true,
            value: 1,
        };
        assert!(answers(OP_GET, &value) && answers(OP_GET_S, &value));
        assert!(!answers(OP_GET, &Response::Done));
        assert!(!answers(OP_SET, &Response::Bye));
        assert!(answers(OP_SET, &Response::NotPrimary { hint: "" }));
        assert!(answers(OP_GET, &Response::Behind { version: 3 }));
        assert!(answers(OP_STATS, &Response::DeadlineExceeded));
        // Control verbs are never shed or redirected, but may fail.
        assert!(!answers(OP_HEALTH, &Response::Overloaded { state: 2 }));
        assert!(answers(OP_FLUSH, &Response::Error { message: "io" }));
        // Nor are the replication verbs a pipe sends.
        let vote = Response::ReplVote {
            granted: true,
            epoch: 2,
        };
        assert!(answers(OP_REPL_CANDIDATE, &vote) && !answers(OP_REPL_PROMOTE, &vote));
        for op in [OP_REPL_PROMOTE, OP_REPL_EPOCH] {
            assert!(answers(op, &Response::Done) && answers(op, &Response::Error { message: "" }));
            assert!(!answers(op, &Response::Overloaded { state: 2 }));
        }
    }

    #[test]
    fn only_incr_trace_and_shutdown_are_never_replayed() {
        for op in [OP_INCR, OP_TRACE, OP_SHUTDOWN] {
            assert!(!replayable(op), "0x{op:02x}");
        }
        for op in [OP_GET, OP_SET, OP_DEL, OP_SCAN, OP_STATS, OP_HEALTH] {
            assert!(replayable(op), "0x{op:02x}");
        }
        for op in [OP_FLUSH, OP_SET_S, OP_GET_S] {
            assert!(replayable(op), "0x{op:02x}");
        }
    }
}
