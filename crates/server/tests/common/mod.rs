//! The client the end-to-end tests share, and the rig for the tests that
//! drive a worker's passes by hand on virtual time (not every test binary
//! does, hence the `allow`).
#![allow(dead_code)]

use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::time::{Duration, Instant};

use gocc_server::idle::{self, PollSet, Waker, POLLIN};
use gocc_server::{BrownoutConfig, Next, ServerState, Worker};
use gocc_wire::{Pipe, Response};

/// A blocking [`Pipe`] to the `goccd` on loopback `port`, for
/// [`Pipe::call`]: a lost answer or a lost wake-up fails the call after
/// the 10 s read timeout instead of hanging the test run.
pub fn connect(port: u16) -> Pipe<TcpStream> {
    let stream = TcpStream::connect(("127.0.0.1", port)).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.set_nodelay(true).unwrap();
    Pipe::new(stream)
}

/// One loopback connection to a [`Worker`] this thread drives itself.
/// `client` is a blocking [`Pipe`]: submit frames on it, [`Hand::send`]
/// them, take the worker's passes, then read the answers.
pub struct Hand {
    pub client: Pipe<TcpStream>,
    /// The worker's end of the connection, which the worker owns.
    pub served: RawFd,
    waker: Waker,
    set: PollSet,
}

impl Hand {
    /// A connection `worker` adopts at `now`.
    pub fn new(worker: &mut Worker<'_>, now: Instant) -> Hand {
        let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
        let client = connect(listener.local_addr().unwrap().port());
        let (served, _) = listener.accept().expect("accept");
        served.set_nonblocking(true).unwrap();
        let fd = served.as_raw_fd();
        worker.adopt(served, now);
        let (waker, set) = (Waker::new().expect("socket pair"), PollSet::default());
        Hand {
            client,
            served: fd,
            waker,
            set,
        }
    }

    /// Writes the frames submitted so far, and waits until they can be
    /// read at the worker's end, so the next pass finds them.
    pub fn send(&mut self) {
        self.client.get_ref().set_nonblocking(true).unwrap();
        self.client.pump().expect("send");
        self.client.get_ref().set_nonblocking(false).unwrap();
        self.set.clear();
        self.set.push(self.served, POLLIN);
        idle::wait(&self.waker, &mut self.set, Some(Duration::from_secs(10)));
    }

    /// The next answer, which a pass already wrote.
    pub fn answer(&mut self) -> Response<'_> {
        self.client.wait().expect("recv");
        self.client.answer().expect("answer").expect("ready").1
    }
}

/// A brownout controller that no engine timing on a loaded box can move
/// out of `Healthy`, for the hand-driven tests that are not about it:
/// their idle decisions must not turn into timed passes.
pub fn steady_brownout() -> BrownoutConfig {
    BrownoutConfig {
        latency_high: Duration::from_secs(3600),
        ..BrownoutConfig::default()
    }
}

/// Worker 0 of `state`, driven by this thread, and one connection to it,
/// both made at `now`.
pub fn hand_worker(state: &ServerState, now: Instant) -> (Worker<'_>, Hand) {
    let mut worker = Worker::new(state, 0, now);
    let hand = Hand::new(&mut worker, now);
    (worker, hand)
}

/// Takes `worker`'s passes from `now` on, each timed pass ending at its
/// tick, until its idle decision is to block; returns that instant.
pub fn until_it_blocks(worker: &mut Worker<'_>, mut now: Instant) -> Instant {
    for _ in 0..100_000 {
        match worker.pass(now) {
            Next::Pass => {}
            Next::Wait {
                blind: true,
                until: Some(tick),
            } => {
                now = tick;
            }
            Next::Wait { blind, .. } => {
                assert!(!blind, "a timed pass without a tick");
                return now;
            }
        }
    }
    panic!("the worker never came to rest");
}
