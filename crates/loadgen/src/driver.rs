//! The load driver: one loop per connection, fed by an arrival schedule.
//!
//! A run opens [`LoadConfig::conns`] connections and drives each from its
//! own thread through one [`Pipe`]. The [`Schedule`] is the only thing
//! that tells a closed loop from an open one:
//!
//! * [`Schedule::Window`] keeps `depth` tickets in flight: an arrival is
//!   due as soon as an answer frees a slot, so the offered load slows down
//!   with the server. That is the paper's throughput measurement, and it
//!   can never overload a server (the coordinated-omission trap).
//! * [`Schedule::Rate`] makes arrival *n* due at `start + n / rate`
//!   whether or not earlier ones were answered, and drops (and counts) an
//!   arrival that finds `max_inflight` tickets out — an open-loop client
//!   bounds its own memory too. Only this can evaluate overload protection.
//!
//! Everything else is one code path. Latency runs from an arrival's due
//! instant, so queueing on either side of the socket is charged to the
//! request. Between passes the thread blocks in the server's own wait,
//! [`idle::wait`], on its socket, until an answer arrives, the next
//! arrival is due or [`ClientConfig::read_timeout`] passes with tickets
//! owed and nothing heard. A socket read timeout cannot pace arrivals: the
//! kernel keeps it in scheduler ticks, milliseconds late. After an I/O
//! failure, that timeout or a protocol violation the connection is rebuilt
//! and [`Pipe::reset`] re-sends what its verb allows; a lost ticket counts
//! as a client error.
//!
//! Arrivals due during the warmup are sent but not counted. Arrivals stop
//! when the measurement window closes, and a connection then drains what
//! it has in flight, so every ticket ends once: answered, or counted lost.

use std::collections::VecDeque;
use std::io;
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use gocc_server::idle::{self, PollSet, Waker, POLLIN};
use gocc_telemetry::{HistogramSnapshot, LatencyHistogram, SplitMix64};
use gocc_wire::{Pipe, Request, Response, Ticket};

use crate::resilient::{connect_with_retry, ClientConfig};
use crate::zipf::Zipf;

/// When a connection's arrivals are due.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Schedule {
    /// Closed loop with this many tickets in flight. 1 is the classic
    /// send, wait, repeat; deeper windows pipeline frames over one socket,
    /// the client half of the server's batching.
    Window(usize),
    /// Open loop at `per_conn` arrivals a second on every connection,
    /// dropping arrivals while `max_inflight` tickets are out.
    Rate {
        /// Arrivals a second, per connection.
        per_conn: f64,
        /// Tickets one connection keeps out at most.
        max_inflight: usize,
    },
}

impl Schedule {
    /// When arrival `n` is due, with `in_flight` tickets out at `now`:
    /// `None` while a window is full, whose next arrival is due when an
    /// answer frees a slot.
    fn due(self, start: Instant, n: u64, in_flight: usize, now: Instant) -> Option<Instant> {
        match self {
            Schedule::Window(depth) => (in_flight < depth).then_some(now),
            Schedule::Rate { per_conn, .. } => {
                Some(start + Duration::from_secs_f64(n as f64 / per_conn))
            }
        }
    }

    /// Tickets a connection keeps out at most.
    fn cap(self) -> usize {
        match self {
            Schedule::Window(depth) => depth,
            Schedule::Rate { max_inflight, .. } => max_inflight,
        }
    }
}

/// One load run's shape.
#[derive(Clone, Debug)]
pub struct LoadConfig {
    /// Concurrent connections, one thread each.
    pub conns: usize,
    /// When each connection's arrivals are due.
    pub schedule: Schedule,
    /// Fraction of operations that are GETs (the rest split into
    /// SET/DEL/INCR at 6:1:1).
    pub read_frac: f64,
    /// Number of distinct keys (`key-0` … `key-{n-1}`).
    pub keyspace: usize,
    /// Zipf skew exponent (0 = uniform, 0.99 = YCSB-style hot keys).
    pub zipf_s: f64,
    /// Issue one SCAN of up to [`SCAN_LIMIT`] entries every this many
    /// requests per connection (0 = never). SCANs are the large-read-set
    /// outlier in the mix.
    pub scan_every: u64,
    /// Deadline budget stamped on every request; `None` sends no
    /// deadline.
    pub deadline_us: Option<u32>,
    /// Arrivals due before this are sent but not counted.
    pub warmup: Duration,
    /// The measured arrival window, after the warmup.
    pub window: Duration,
    /// Base RNG seed: connection *c* draws from `seed ^ c·φ`, so two runs
    /// against equal servers issue identical request streams per
    /// connection.
    pub seed: u64,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            conns: 1,
            schedule: Schedule::Window(1),
            read_frac: 0.9,
            keyspace: 4096,
            zipf_s: 0.99,
            scan_every: 2048,
            deadline_us: None,
            warmup: Duration::from_millis(200),
            window: Duration::from_millis(800),
            seed: 42,
        }
    }
}

/// What a run counted: arrivals due inside its measurement window, except
/// for [`Counts::client_errors`], which covers the whole run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Arrivals due.
    pub offered: u64,
    /// Arrivals submitted: `offered` less `dropped`.
    pub sent: u64,
    /// Tickets answered, whatever the answer.
    pub completed: u64,
    /// Answered with the verb's own response.
    pub ok: u64,
    /// Answered `Overloaded` (the server shed it).
    pub overloaded: u64,
    /// Answered `DeadlineExceeded`.
    pub deadline_exceeded: u64,
    /// Answered `Error`.
    pub server_errors: u64,
    /// Tickets lost to a failed connection and never re-sent, tickets and
    /// connections given up, and protocol violations.
    pub client_errors: u64,
    /// Arrivals dropped because `max_inflight` tickets were out.
    pub dropped: u64,
}

impl Counts {
    fn add(&mut self, other: &Counts) {
        self.offered += other.offered;
        self.sent += other.sent;
        self.completed += other.completed;
        self.ok += other.ok;
        self.overloaded += other.overloaded;
        self.deadline_exceeded += other.deadline_exceeded;
        self.server_errors += other.server_errors;
        self.client_errors += other.client_errors;
        self.dropped += other.dropped;
    }
}

/// One measured load point, client side.
#[derive(Clone, Debug)]
pub struct PointResult {
    /// Connections driven.
    pub conns: usize,
    /// What the run counted.
    pub counts: Counts,
    /// Due→answer latency of the counted `ok` answers. Refusals are left
    /// out: the overload gate is on the work the server accepted.
    pub latency: HistogramSnapshot,
    /// The measurement window's length.
    pub elapsed: Duration,
}

impl PointResult {
    /// Answers a second over the measurement window.
    #[must_use]
    pub fn ops_per_sec(&self) -> f64 {
        self.counts.completed as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// Entry limit per SCAN.
pub const SCAN_LIMIT: u32 = 64;

/// Give up on a connection whose failures come this many times in a row
/// with nothing heard between them: the server is gone, not merely faulty.
const MAX_CONSECUTIVE_FAILURES: u32 = 5;

/// What every connection of a run shares.
struct Run<'a> {
    port: u16,
    cfg: &'a LoadConfig,
    client: ClientConfig,
    zipf: Zipf,
    hist: LatencyHistogram,
    /// Every connection's arrival 0 is due here.
    start: Instant,
}

/// Runs one load point against the server on loopback `port`: opens every
/// connection, then drives each from its own thread until its arrivals
/// are in and its tickets have ended.
///
/// # Errors
/// A connection that cannot be opened at the start. Later I/O failures
/// are counted in [`Counts::client_errors`] and the run goes on.
pub fn run_point(port: u16, cfg: &LoadConfig) -> io::Result<PointResult> {
    assert!(cfg.conns >= 1);
    match cfg.schedule {
        Schedule::Window(depth) => assert!(depth >= 1),
        Schedule::Rate {
            per_conn,
            max_inflight,
        } => assert!(per_conn > 0.0 && max_inflight >= 1),
    }
    let client = ClientConfig::default();
    let mut conns = Vec::with_capacity(cfg.conns);
    for c in 0..cfg.conns {
        let seed = cfg.seed ^ (c as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        // Independent streams for the workload draw and the backoff jitter
        // so resilience events never perturb the request sequence.
        let mut backoff = SplitMix64::new(seed ^ 0xA076_1D64_78BD_642F);
        let pipe = Pipe::new(connect(port, &client, &mut backoff)?);
        conns.push((SplitMix64::new(seed), backoff, pipe));
    }
    let run = Run {
        port,
        cfg,
        client,
        zipf: Zipf::new(cfg.keyspace, cfg.zipf_s),
        hist: LatencyHistogram::new(),
        start: Instant::now(),
    };
    let counts = std::thread::scope(|s| {
        let drivers: Vec<_> = conns
            .into_iter()
            .map(|(rng, backoff, pipe)| s.spawn(|| drive(&run, rng, backoff, pipe)))
            .collect();
        let mut sum = Counts::default();
        for d in drivers {
            sum.add(&d.join().expect("a connection driver panicked"));
        }
        sum
    });
    Ok(PointResult {
        conns: cfg.conns,
        counts,
        latency: run.hist.snapshot(),
        elapsed: cfg.window,
    })
}

fn connect(port: u16, client: &ClientConfig, backoff: &mut SplitMix64) -> io::Result<TcpStream> {
    let stream = connect_with_retry(port, client, backoff)?;
    stream.set_nonblocking(true)?;
    Ok(stream)
}

/// Draws the next workload request into `keybuf`: a key from the Zipf
/// population, then `scan` when given, else GET with `read_frac`, else
/// SET/DEL/INCR at 6:1:1.
fn draw_request<'k>(
    zipf: &Zipf,
    rng: &mut SplitMix64,
    read_frac: f64,
    scan: Option<u32>,
    keybuf: &'k mut String,
) -> Request<'k> {
    use std::fmt::Write as _;
    keybuf.clear();
    let _ = write!(keybuf, "key-{}", zipf.sample(rng));
    let key = keybuf.as_bytes();
    if let Some(limit) = scan {
        Request::Scan { limit }
    } else if rng.chance(read_frac) {
        Request::Get { key }
    } else {
        match rng.below(8) {
            0 => Request::Del { key },
            1 => Request::Incr { key, delta: 1 },
            _ => Request::Set {
                key,
                value: rng.next_u64(),
                ttl: 0,
            },
        }
    }
}

/// One connection's loop: submit every due arrival, write and read what
/// the socket takes, count every answer, and wait. See the module docs.
fn drive(
    run: &Run<'_>,
    mut rng: SplitMix64,
    mut backoff: SplitMix64,
    mut pipe: Pipe<TcpStream>,
) -> Counts {
    let cfg = run.cfg;
    let measure_at = run.start + cfg.warmup;
    let end = measure_at + cfg.window;
    let mut counts = Counts::default();
    // `idle::wait` watches a waker beside the socket; nothing wakes this one.
    let Ok(waker) = Waker::new() else {
        counts.client_errors += 1;
        return counts;
    };
    idle::exact_timers();
    let mut set = PollSet::default();
    let mut keybuf = String::new();
    // Per ticket in flight, oldest first: due instant, counted.
    let mut inflight: VecDeque<(Ticket, Instant, bool)> = VecDeque::new();
    // Arrivals due so far, and how many of them were submitted (every
    // `scan_every`-th submission is a SCAN).
    let (mut arrivals, mut submitted) = (0u64, 0u64);
    let mut failures = 0u32;
    // The read timeout runs from the last bytes read, or from the submit
    // that ended a time with nothing owed.
    let mut heard = Instant::now();

    loop {
        let now = Instant::now();
        while let Some(due) = cfg
            .schedule
            .due(run.start, arrivals, inflight.len(), now)
            .filter(|&due| due <= now && due < end)
        {
            arrivals += 1;
            let measured = due >= measure_at;
            counts.offered += u64::from(measured);
            if inflight.len() >= cfg.schedule.cap() {
                counts.dropped += u64::from(measured);
                continue;
            }
            if inflight.is_empty() {
                heard = now;
            }
            submitted += 1;
            let scan = cfg.scan_every > 0 && submitted.is_multiple_of(cfg.scan_every);
            let scan = scan.then_some(SCAN_LIMIT);
            let req = draw_request(&run.zipf, &mut rng, cfg.read_frac, scan, &mut keybuf);
            inflight.push_back((pipe.submit(&req, cfg.deadline_us), due, measured));
            counts.sent += u64::from(measured);
        }
        let next = cfg
            .schedule
            .due(run.start, arrivals, inflight.len(), now)
            .filter(|&due| due < end);
        if next.is_none() && inflight.is_empty() {
            return counts;
        }

        let stalled_at = heard + run.client.read_timeout;
        match pipe.pump() {
            Ok(true) => {
                heard = now;
                if take_answers(&mut pipe, &mut inflight, &mut counts, &run.hist).is_ok() {
                    failures = 0;
                    continue;
                }
                counts.client_errors += 1;
            }
            Ok(false) if inflight.is_empty() || now < stalled_at => {
                // Watch the socket only while something is owed: a closed
                // one is readable for good, and would spin the wait. Only
                // reads are waited for: a frame the socket could not take
                // yet goes out on the next pump, which the answers to the
                // frames written before it bring about.
                let events = if inflight.is_empty() { 0 } else { POLLIN };
                set.clear();
                set.push(pipe.get_ref().as_raw_fd(), events);
                let until = match (next, inflight.is_empty()) {
                    (Some(due), false) => due.min(stalled_at),
                    (Some(due), true) => due,
                    (None, _) => stalled_at,
                };
                idle::wait(&waker, &mut set, Some(until.saturating_duration_since(now)));
                continue;
            }
            // Stalled past the read timeout, or the connection failed.
            Ok(false) | Err(_) => {}
        }

        failures += 1;
        let retry = failures < MAX_CONSECUTIVE_FAILURES;
        let Some(stream) = retry
            .then(|| connect(run.port, &run.client, &mut backoff).ok())
            .flatten()
        else {
            counts.client_errors += 1 + inflight.len() as u64;
            return counts;
        };
        let lost = pipe.reset(stream);
        counts.client_errors += lost.len() as u64;
        inflight.retain(|(t, ..)| !lost.contains(t));
        heard = Instant::now();
    }
}

/// Takes every answer that has arrived, in submission order, into
/// `counts` and `hist`. `Err` on a protocol violation, which the caller
/// handles like a failed connection.
fn take_answers(
    pipe: &mut Pipe<TcpStream>,
    inflight: &mut VecDeque<(Ticket, Instant, bool)>,
    counts: &mut Counts,
    hist: &LatencyHistogram,
) -> io::Result<()> {
    while let Some((_, resp)) = pipe.answer()? {
        let (_, due, measured) = inflight.pop_front().expect("answers a ticket");
        if !measured {
            continue;
        }
        counts.completed += 1;
        match resp {
            Response::Overloaded { .. } => counts.overloaded += 1,
            Response::DeadlineExceeded => counts.deadline_exceeded += 1,
            Response::Error { .. } => counts.server_errors += 1,
            _ => {
                counts.ok += 1;
                hist.record(u64::try_from(due.elapsed().as_nanos()).unwrap_or(u64::MAX));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gocc_server::{spawn, Mode, ServerConfig};

    #[test]
    fn open_loop_completes_against_a_live_server() {
        let handle = spawn(ServerConfig {
            mode: Mode::Gocc,
            port: 0,
            workers: 2,
            shards: 2,
            capacity_per_shard: 4096,
            ..ServerConfig::default()
        })
        .expect("spawn");
        let rate = Schedule::Rate {
            per_conn: 500.0,
            max_inflight: 256,
        };
        for schedule in [rate, Schedule::Window(4)] {
            let cfg = LoadConfig {
                conns: 2,
                schedule,
                warmup: Duration::from_millis(50),
                window: Duration::from_millis(300),
                deadline_us: Some(1_000_000),
                ..LoadConfig::default()
            };
            let r = run_point(handle.port(), &cfg).expect("run");
            let c = r.counts;
            assert!(c.offered > 0 && c.ok > 0, "{schedule:?}: {r:?}");
            assert_eq!(c.client_errors, 0, "{schedule:?}: {r:?}");
            assert_eq!(c.server_errors, 0, "{schedule:?}: {r:?}");
            // Every ticket ended once: everything sent was answered.
            assert_eq!(c.completed, c.sent, "{schedule:?}: {r:?}");
            assert!(r.latency.count > 0, "{schedule:?}: {r:?}");
        }
        handle.request_shutdown();
        let _ = handle.join();
    }
}
