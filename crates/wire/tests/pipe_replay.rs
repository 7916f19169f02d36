//! The replay rule, tested once, where it lives: a [`Pipe`] kept eight
//! deep with GET/SET/DEL/INCR, driven through a [`FaultyStream`] whose
//! seeded plan cuts reads and writes short, stalls them and resets the
//! connection, against an in-process fake server. After every reset the
//! pipe moves onto a fresh connection and re-sends what it may.
//!
//! Four properties, over every ticket of the run:
//! * each ticket ends exactly once, answered or lost;
//! * answers come back in submission order;
//! * every replayable ticket is answered, however many resets it met;
//! * the server receives each INCR at most once, so a lost INCR is never
//!   counted twice.

use std::cell::RefCell;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::rc::Rc;
use std::sync::Arc;

use gocc_faultplane::{TransportFaultPlan, TransportMix};
use gocc_telemetry::SplitMix64;
use gocc_wire::{
    decode_request_any, encode_response, FaultyStream, FrameBuf, Pipe, Request, Response, Ticket,
};

/// One connection to a fake server that counts, across its connections,
/// the INCRs it receives per key. A frame is served the moment its last
/// byte is written; its answer waits to be read, and dies with the
/// connection.
struct Conn {
    incr_receipts: Rc<RefCell<HashMap<Vec<u8>, u64>>>,
    inbuf: FrameBuf,
    out: Vec<u8>,
    read_at: usize,
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.inbuf.extend(buf);
        while let Some(body) = self.inbuf.next_frame().expect("well-framed") {
            let resp = match decode_request_any(body).expect("well-formed").req {
                Request::Get { .. } => Response::Value {
                    found: false,
                    value: 0,
                },
                Request::Set { .. } => Response::Done,
                Request::Del { .. } => Response::Deleted { existed: false },
                Request::Incr { key, .. } => {
                    let mut receipts = self.incr_receipts.borrow_mut();
                    let value = receipts.entry(key.to_vec()).or_default();
                    *value += 1;
                    Response::Counter { value: *value }
                }
                other => panic!("the mix has no {other:?}"),
            };
            encode_response(&resp, &mut self.out);
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = (self.out.len() - self.read_at).min(buf.len());
        if n == 0 {
            return Err(io::ErrorKind::WouldBlock.into());
        }
        buf[..n].copy_from_slice(&self.out[self.read_at..self.read_at + n]);
        self.read_at += n;
        Ok(n)
    }
}

#[test]
fn every_ticket_ends_once_and_no_incr_reaches_the_server_twice() {
    const OPS: u64 = 3_000;
    const DEPTH: usize = 8;
    let plan = Arc::new(TransportFaultPlan::new(
        2026,
        TransportMix {
            short_read: 0.2,
            short_write: 0.2,
            stall: 0.1,
            reset: 0.05,
        },
    ));
    let incr_receipts = Rc::new(RefCell::new(HashMap::new()));
    let connect = || {
        let conn = Conn {
            incr_receipts: Rc::clone(&incr_receipts),
            inbuf: FrameBuf::new(),
            out: Vec::new(),
            read_at: 0,
        };
        FaultyStream::new(conn, Arc::clone(&plan))
    };

    let mut pipe = Pipe::new(connect());
    let mut rng = SplitMix64::new(7);
    // Per ticket: its INCR key (each INCR counts a key of its own, so
    // receipts are countable per request) or `None` for a replayable verb.
    let mut submitted: HashMap<Ticket, Option<String>> = HashMap::new();
    let mut answered: Vec<Ticket> = Vec::new();
    let mut lost: Vec<Ticket> = Vec::new();
    let (mut resets, mut replayed) = (0usize, 0usize);
    let mut n = 0u64;
    while n < OPS || pipe.in_flight() > 0 {
        while n < OPS && pipe.in_flight() < DEPTH {
            let key = format!("k{}", rng.below(16));
            let counter = format!("c{n}");
            let req = match rng.below(4) {
                0 => Request::Get {
                    key: key.as_bytes(),
                },
                1 => Request::Set {
                    key: key.as_bytes(),
                    value: n,
                    ttl: 0,
                },
                2 => Request::Del {
                    key: key.as_bytes(),
                },
                _ => Request::Incr {
                    key: counter.as_bytes(),
                    delta: 1,
                },
            };
            let ticket = pipe.submit(&req, None);
            let incr = (!req.replayable()).then_some(counter);
            assert!(submitted.insert(ticket, incr).is_none(), "ticket reused");
            n += 1;
        }
        match pipe.pump() {
            Ok(_) => {
                while let Some((ticket, _)) = pipe.answer().expect("answers fit their tickets") {
                    answered.push(ticket);
                }
            }
            Err(e) => {
                assert_eq!(e.kind(), io::ErrorKind::ConnectionReset, "{e}");
                resets += 1;
                let before = pipe.in_flight();
                let gone = pipe.reset(connect());
                replayed += before - gone.len();
                lost.extend(gone);
            }
        }
    }

    assert!(
        answered.windows(2).all(|w| w[0] < w[1]),
        "answers out of submission order"
    );
    let mut ended: Vec<Ticket> = answered.iter().chain(&lost).copied().collect();
    ended.sort_unstable();
    ended.dedup();
    assert_eq!(
        ended.len(),
        answered.len() + lost.len(),
        "a ticket ended twice"
    );
    assert_eq!(ended.len(), submitted.len(), "a ticket never ended");
    for ticket in &lost {
        assert!(
            submitted[ticket].is_some(),
            "replayable {ticket:?} was lost"
        );
    }
    let incr_receipts = incr_receipts.borrow();
    for (key, &receipts) in incr_receipts.iter() {
        assert_eq!(
            receipts, 1,
            "INCR {key:?} reached the server {receipts} times"
        );
    }
    // The plan really bit: connections died, tickets were re-sent, and
    // some INCR the server applied lost its answer — a replay of it would
    // have counted twice.
    assert!(
        resets > 10 && replayed > 10,
        "resets={resets} replayed={replayed}"
    );
    assert!(
        lost.iter()
            .any(|t| incr_receipts.contains_key(submitted[t].as_ref().unwrap().as_bytes())),
        "no applied INCR lost its answer"
    );
}
