//! The client the end-to-end tests share, the `/proc` reader that counts
//! a server's threads, and the rig for the tests that drive a worker's
//! passes by hand on virtual time, over in-memory links with no socket
//! (not every test binary uses all of it, hence the `allow`).
#![allow(dead_code)]

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fs;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::rc::Rc;
use std::time::{Duration, Instant};

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

/// One thread of this process, as `/proc/self/task` shows it, read the
/// way `benchmark/src/procfs.rs` reads it.
pub struct Thread {
    /// Its name. `comm` keeps 15 bytes: `goccd-checkpoint` reads
    /// `goccd-checkpoin`. Two servers in one process each own a
    /// `goccd-worker-0`, so a name is not an identity; `tid` is.
    pub name: String,
    /// Its id, the directory's name under `/proc/self/task`.
    pub tid: u64,
    dir: PathBuf,
}

impl Thread {
    fn field(&self, file: &str) -> String {
        fs::read_to_string(self.dir.join(file)).unwrap_or_default()
    }

    /// Voluntary context switches so far: the thread's wake-ups.
    pub fn switches(&self) -> u64 {
        let status = self.field("status");
        let count = status
            .lines()
            .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"));
        count
            .and_then(|v| v.trim().parse().ok())
            .expect("voluntary_ctxt_switches")
    }

    /// CPU nanoseconds the thread has used so far.
    pub fn cpu_ns(&self) -> u64 {
        let schedstat = self.field("schedstat");
        let ran = schedstat.split_whitespace().next();
        ran.and_then(|v| v.parse().ok()).expect("schedstat")
    }
}

/// Every thread of this process, sorted by name, then by id.
pub fn threads() -> Vec<Thread> {
    let mut threads: Vec<Thread> = fs::read_dir("/proc/self/task")
        .expect("procfs")
        .flatten()
        .map(|task| {
            let dir = task.path();
            let comm = fs::read_to_string(dir.join("comm")).unwrap_or_default();
            Thread {
                name: comm.trim_end().to_string(),
                tid: task.file_name().to_string_lossy().parse().expect("tid"),
                dir,
            }
        })
        .collect();
    threads.sort_by(|a, b| (&a.name, a.tid).cmp(&(&b.name, b.tid)));
    threads
}

/// The threads the servers in this process started: their `goccd-*`
/// threads and their logs' `wal-syncer`s.
pub fn server_threads() -> Vec<Thread> {
    let mut threads = threads();
    threads.retain(|t| t.name.starts_with("goccd-") || t.name == "wal-syncer");
    threads
}

/// One direction of a [`Link`]: the bytes written and not read yet, at
/// most `bound` of them, whether either end is gone, and the `read` and
/// `write` calls made on it.
struct Lane {
    bytes: VecDeque<u8>,
    bound: usize,
    writer_gone: bool,
    reader_gone: bool,
    reads: u64,
    writes: u64,
}

/// One end of an in-memory, non-blocking byte stream, for a [`Worker`]
/// driven by hand: what one end writes, the other reads at once. Each
/// direction holds at most its bound: a write past it takes what fits,
/// or fails `WouldBlock` when nothing does. A read of an empty direction
/// fails `WouldBlock` while the other end lives, and reads end of stream
/// once it is dropped.
pub struct Link {
    rx: Rc<RefCell<Lane>>,
    tx: Rc<RefCell<Lane>>,
}

impl Link {
    /// Two connected ends, each direction bounded at `bound` bytes.
    pub fn pair(bound: usize) -> (Link, Link) {
        let lane = || {
            Rc::new(RefCell::new(Lane {
                bytes: VecDeque::new(),
                bound,
                writer_gone: false,
                reader_gone: false,
                reads: 0,
                writes: 0,
            }))
        };
        let (a, b) = (lane(), lane());
        let near = Link {
            rx: Rc::clone(&a),
            tx: Rc::clone(&b),
        };
        (near, Link { rx: b, tx: a })
    }

    /// The `read` and `write` calls the other end has made so far.
    pub fn peer_calls(&self) -> (u64, u64) {
        (self.tx.borrow().reads, self.rx.borrow().writes)
    }
}

impl Read for Link {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let mut rx = self.rx.borrow_mut();
        rx.reads += 1;
        if rx.bytes.is_empty() && !rx.writer_gone {
            return Err(io::ErrorKind::WouldBlock.into());
        }
        rx.bytes.read(buf)
    }
}

impl Write for Link {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut tx = self.tx.borrow_mut();
        tx.writes += 1;
        if tx.reader_gone {
            return Err(io::ErrorKind::BrokenPipe.into());
        }
        let n = buf.len().min(tx.bound - tx.bytes.len());
        if n == 0 && !buf.is_empty() {
            return Err(io::ErrorKind::WouldBlock.into());
        }
        tx.bytes.extend(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Drop for Link {
    fn drop(&mut self) {
        self.rx.borrow_mut().reader_gone = true;
        self.tx.borrow_mut().writer_gone = true;
    }
}

/// What each direction of a [`Hand`]'s link holds unless a test says
/// otherwise: more than any test here keeps in flight.
pub const LINK_BOUND: usize = 1 << 20;

/// One in-memory connection to a [`Worker`] this thread drives itself.
/// `client` is a [`Pipe`] over the client's end: submit frames on it,
/// [`Hand::send`] them, take the worker's passes, then read the answers.
pub struct Hand {
    pub client: Pipe<Link>,
}

impl Hand {
    /// A connection `worker` adopts at `now`, each direction bounded at
    /// `bound` bytes.
    pub fn new(worker: &mut Worker<'_, Link>, now: Instant, bound: usize) -> Hand {
        let (client, served) = Link::pair(bound);
        worker.adopt(served, now);
        Hand {
            client: Pipe::new(client),
        }
    }

    /// Writes the frames submitted so far, for the next pass to find.
    pub fn send(&mut self) {
        self.client.pump().expect("send");
        assert!(!self.client.unsent(), "the link took only part of it");
    }

    /// Takes in what the worker wrote since the last look, and says
    /// whether there was any.
    pub fn received(&mut self) -> bool {
        self.client.pump().expect("recv")
    }

    /// The transport calls the worker made on this connection so far:
    /// `(reads, writes)`.
    pub fn served_calls(&self) -> (u64, u64) {
        self.client.get_ref().peer_calls()
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
pub fn hand_worker(state: &ServerState, now: Instant) -> (Worker<'_, Link>, Hand) {
    let mut worker = Worker::new(state, 0, now);
    let hand = Hand::new(&mut worker, now, LINK_BOUND);
    (worker, hand)
}

/// Takes `worker`'s passes from `now` on, each timed pass ending at its
/// tick, until its idle decision is to block; returns that instant.
pub fn until_it_blocks(worker: &mut Worker<'_, Link>, mut now: Instant) -> Instant {
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
