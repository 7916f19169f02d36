//! Open-loop load generation: arrivals on a fixed schedule, regardless of
//! whether earlier requests have completed.
//!
//! The closed-loop generator in the crate root can never overload a
//! server: each connection waits for its response, so when the server
//! slows down the offered load slows down with it — the classic
//! coordinated-omission trap. Overload protection can only be evaluated
//! under *open-loop* arrivals, where request *n* is due at
//! `start + n / rate` whether or not request *n-1* has been answered, and
//! latency is measured **from the scheduled arrival instant** so queueing
//! delay (client- and server-side) is charged to the request.
//!
//! Each connection runs on one thread with a nonblocking socket: due
//! arrivals are encoded into a pending write buffer, responses are
//! reassembled through [`FrameBuf`] and matched FIFO against the in-flight
//! queue (the server answers every admitted or shed frame in order).
//! Arrivals beyond [`OpenLoopConfig::max_inflight`] are dropped and
//! counted — an open-loop client must bound its own memory too.
//!
//! An optional client-side [`CircuitBreaker`] sheds arrivals locally while
//! the server reports `Overloaded`, modeling the polite client described
//! in `DESIGN.md`.

use std::collections::VecDeque;
use std::io::{self, Read as _, Write as _};
use std::net::{Ipv4Addr, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use gocc_telemetry::{HistogramSnapshot, LatencyHistogram, SplitMix64};
use gocc_wire::{decode_response, encode_request_v2, FrameBuf, Request, Response};

use crate::resilient::{BreakerConfig, CircuitBreaker};
use crate::zipf::Zipf;

/// Open-loop run shape.
#[derive(Clone, Debug)]
pub struct OpenLoopConfig {
    /// Concurrent connections, each with its own arrival schedule.
    pub conns: usize,
    /// Scheduled arrivals per second **per connection**.
    pub rate_per_conn: f64,
    /// Arrivals before this are sent but not measured.
    pub warmup: Duration,
    /// Measured arrival window.
    pub duration: Duration,
    /// Deadline budget stamped on every data request (protocol v2);
    /// `None` sends v2 frames without a deadline field.
    pub deadline_us: Option<u32>,
    /// Fraction of arrivals that are GETs (the rest split into
    /// SET/DEL/INCR at 6:1:1, as in the closed-loop mix; no SCANs — the
    /// open-loop harness measures the cheap-verb path under pressure).
    pub read_frac: f64,
    /// Number of distinct keys.
    pub keyspace: usize,
    /// Zipf skew exponent.
    pub zipf_s: f64,
    /// Base RNG seed.
    pub seed: u64,
    /// In-flight cap per connection; arrivals past it are dropped (and
    /// counted), bounding client memory under saturation.
    pub max_inflight: usize,
    /// Client-side circuit breaker; `None` keeps offering load while the
    /// server sheds (the adversarial client overload tests need).
    pub breaker: Option<BreakerConfig>,
    /// How long after the last scheduled arrival to keep draining
    /// responses before abandoning the remaining in-flight requests.
    pub drain_grace: Duration,
}

impl Default for OpenLoopConfig {
    fn default() -> Self {
        OpenLoopConfig {
            conns: 4,
            rate_per_conn: 2_000.0,
            warmup: Duration::from_millis(200),
            duration: Duration::from_millis(800),
            deadline_us: None,
            read_frac: 0.9,
            keyspace: 4096,
            zipf_s: 0.99,
            seed: 42,
            max_inflight: 256,
            breaker: None,
            drain_grace: Duration::from_secs(2),
        }
    }
}

/// Aggregated outcome of one open-loop run. Counters cover the measured
/// window only (warmup arrivals are sent and matched but not counted).
#[derive(Clone, Debug)]
pub struct OpenLoopResult {
    /// Connections driven.
    pub conns: usize,
    /// Total target arrival rate (conns × rate_per_conn).
    pub target_rate: f64,
    /// Scheduled arrivals.
    pub offered: u64,
    /// Arrivals actually written to a socket.
    pub sent: u64,
    /// Responses matched to a sent request.
    pub completed: u64,
    /// Completed with the expected data response.
    pub ok: u64,
    /// Completed with `Response::Overloaded` (server shed).
    pub overloaded: u64,
    /// Completed with `Response::DeadlineExceeded`.
    pub deadline_exceeded: u64,
    /// Completed with `Response::Error`.
    pub server_errors: u64,
    /// Requests lost to IO failures / abandoned at drain timeout, plus
    /// protocol violations.
    pub client_errors: u64,
    /// Arrivals dropped at the client because `max_inflight` was reached.
    pub dropped_inflight: u64,
    /// Arrivals dropped client-side by an open circuit breaker.
    pub breaker_dropped: u64,
    /// Times the circuit breaker opened, summed over connections.
    pub breaker_trips: u64,
    /// Scheduled-arrival→response latency of **admitted, OK** requests
    /// (shed and deadline responses are excluded: the gate is on the
    /// latency of work the server accepted).
    pub latency: HistogramSnapshot,
    /// Measured window length.
    pub elapsed: Duration,
}

impl OpenLoopResult {
    /// Fraction of measured arrivals the server shed.
    #[must_use]
    pub fn shed_frac(&self) -> f64 {
        self.overloaded as f64 / (self.offered as f64).max(1.0)
    }
}

#[derive(Default)]
struct Tallies {
    offered: AtomicU64,
    sent: AtomicU64,
    completed: AtomicU64,
    ok: AtomicU64,
    overloaded: AtomicU64,
    deadline_exceeded: AtomicU64,
    server_errors: AtomicU64,
    client_errors: AtomicU64,
    dropped_inflight: AtomicU64,
    breaker_dropped: AtomicU64,
    breaker_trips: AtomicU64,
}

/// Expected response shape per request kind, for FIFO matching.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Get,
    Set,
    Del,
    Incr,
}

struct Inflight {
    scheduled: Instant,
    measured: bool,
    kind: Kind,
}

/// Runs one open-loop point against a live server on loopback `port`.
///
/// # Errors
/// Fails only on setup (initial connect); runtime IO failures are counted
/// in [`OpenLoopResult::client_errors`] and the run continues.
pub fn run_open_loop(port: u16, cfg: &OpenLoopConfig) -> io::Result<OpenLoopResult> {
    assert!(cfg.conns >= 1);
    assert!(cfg.rate_per_conn > 0.0);
    assert!(cfg.max_inflight >= 1);
    let zipf = Zipf::new(cfg.keyspace, cfg.zipf_s);
    let tallies = Tallies::default();
    let hist = LatencyHistogram::new();
    let start = Instant::now() + Duration::from_millis(10);

    std::thread::scope(|s| {
        for c in 0..cfg.conns {
            let (zipf, tallies, hist) = (&zipf, &tallies, &hist);
            let cfg = cfg.clone();
            s.spawn(move || {
                let seed = cfg.seed ^ (c as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                drive_open(port, &cfg, zipf, seed, start, tallies, hist);
            });
        }
    });

    Ok(OpenLoopResult {
        conns: cfg.conns,
        target_rate: cfg.conns as f64 * cfg.rate_per_conn,
        offered: tallies.offered.load(Ordering::SeqCst),
        sent: tallies.sent.load(Ordering::SeqCst),
        completed: tallies.completed.load(Ordering::SeqCst),
        ok: tallies.ok.load(Ordering::SeqCst),
        overloaded: tallies.overloaded.load(Ordering::SeqCst),
        deadline_exceeded: tallies.deadline_exceeded.load(Ordering::SeqCst),
        server_errors: tallies.server_errors.load(Ordering::SeqCst),
        client_errors: tallies.client_errors.load(Ordering::SeqCst),
        dropped_inflight: tallies.dropped_inflight.load(Ordering::SeqCst),
        breaker_dropped: tallies.breaker_dropped.load(Ordering::SeqCst),
        breaker_trips: tallies.breaker_trips.load(Ordering::SeqCst),
        latency: hist.snapshot(),
        elapsed: cfg.duration,
    })
}

fn connect(port: u16) -> io::Result<TcpStream> {
    let addr = SocketAddr::from((Ipv4Addr::LOCALHOST, port));
    let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(2))?;
    stream.set_nodelay(true)?;
    stream.set_nonblocking(true)?;
    Ok(stream)
}

/// One connection's open loop. Arrival *n* is due at
/// `start + n / rate`; the loop never waits for a response to schedule
/// the next arrival.
#[allow(clippy::too_many_lines)]
fn drive_open(
    port: u16,
    cfg: &OpenLoopConfig,
    zipf: &Zipf,
    seed: u64,
    start: Instant,
    tallies: &Tallies,
    hist: &LatencyHistogram,
) {
    let Ok(mut stream) = connect(port) else {
        tallies.client_errors.fetch_add(1, Ordering::Relaxed);
        return;
    };
    let mut rng = SplitMix64::new(seed);
    let mut breaker = cfg.breaker.map(CircuitBreaker::new);
    let interval = Duration::from_secs_f64(1.0 / cfg.rate_per_conn);
    let measure_at = start + cfg.warmup;
    let last_arrival = measure_at + cfg.duration;
    let drain_by = last_arrival + cfg.drain_grace;

    let mut inflight: VecDeque<Inflight> = VecDeque::new();
    let mut outbuf: Vec<u8> = Vec::new();
    let mut framebuf = FrameBuf::new();
    let mut readbuf = [0u8; 16 * 1024];
    let mut keybuf = String::new();
    let mut n: u64 = 0;

    loop {
        let now = Instant::now();
        let next_due = start + interval.mul_f64(n as f64);
        let arrivals_done = next_due >= last_arrival;
        if arrivals_done && inflight.is_empty() && outbuf.is_empty() {
            break;
        }
        if now >= drain_by {
            // Whatever the server still owes us is lost to the run.
            tallies
                .client_errors
                .fetch_add(inflight.len() as u64, Ordering::Relaxed);
            break;
        }

        // Schedule every arrival that is due, waiting for nothing.
        while !arrivals_done && start + interval.mul_f64(n as f64) <= now {
            let due = start + interval.mul_f64(n as f64);
            n += 1;
            let measured = due >= measure_at && due < last_arrival;
            if measured {
                tallies.offered.fetch_add(1, Ordering::Relaxed);
            }
            if let Some(b) = breaker.as_mut() {
                if !b.permit() {
                    if measured {
                        tallies.breaker_dropped.fetch_add(1, Ordering::Relaxed);
                    }
                    continue;
                }
            }
            if inflight.len() >= cfg.max_inflight {
                if measured {
                    tallies.dropped_inflight.fetch_add(1, Ordering::Relaxed);
                }
                continue;
            }
            use std::fmt::Write as _;
            keybuf.clear();
            let _ = write!(keybuf, "key-{}", zipf.sample(&mut rng));
            let (req, kind) = if rng.chance(cfg.read_frac) {
                (
                    Request::Get {
                        key: keybuf.as_bytes(),
                    },
                    Kind::Get,
                )
            } else {
                match rng.below(8) {
                    0 => (
                        Request::Del {
                            key: keybuf.as_bytes(),
                        },
                        Kind::Del,
                    ),
                    1 => (
                        Request::Incr {
                            key: keybuf.as_bytes(),
                            delta: 1,
                        },
                        Kind::Incr,
                    ),
                    _ => (
                        Request::Set {
                            key: keybuf.as_bytes(),
                            value: rng.next_u64(),
                            ttl: 0,
                        },
                        Kind::Set,
                    ),
                }
            };
            encode_request_v2(&req, cfg.deadline_us, &mut outbuf);
            inflight.push_back(Inflight {
                scheduled: due,
                measured,
                kind,
            });
            if measured {
                tallies.sent.fetch_add(1, Ordering::Relaxed);
            }
        }

        // Flush as much of the pending writes as the socket will take.
        let mut io_failed = false;
        while !outbuf.is_empty() {
            match stream.write(&outbuf) {
                Ok(0) => {
                    io_failed = true;
                    break;
                }
                Ok(k) => {
                    outbuf.drain(..k);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    io_failed = true;
                    break;
                }
            }
        }

        // Drain whatever responses have arrived.
        if !io_failed {
            loop {
                match stream.read(&mut readbuf) {
                    Ok(0) => {
                        io_failed = true;
                        break;
                    }
                    Ok(k) => {
                        framebuf.extend(&readbuf[..k]);
                        if !drain_frames(&mut framebuf, &mut inflight, tallies, hist, &mut breaker)
                        {
                            io_failed = true;
                        }
                        if io_failed || k < readbuf.len() {
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        io_failed = true;
                        break;
                    }
                }
            }
        }

        if io_failed {
            // The connection is gone: every in-flight request with it.
            let lost = inflight.iter().filter(|f| f.measured).count() as u64;
            tallies.client_errors.fetch_add(lost, Ordering::Relaxed);
            inflight.clear();
            outbuf.clear();
            framebuf = FrameBuf::new();
            match connect(port) {
                Ok(s) => stream = s,
                Err(_) => {
                    tallies.client_errors.fetch_add(1, Ordering::Relaxed);
                    return;
                }
            }
        }

        // Sleep until the next scheduled arrival, but keep polling the
        // socket often enough that responses drain promptly.
        let next_due = start + interval.mul_f64(n as f64);
        let now = Instant::now();
        let until_due = if arrivals_done {
            Duration::from_micros(200)
        } else {
            next_due.saturating_duration_since(now)
        };
        let nap = until_due.min(Duration::from_micros(500));
        if !nap.is_zero() {
            std::thread::sleep(nap);
        }
    }

    if let Some(b) = breaker {
        tallies
            .breaker_trips
            .fetch_add(b.trips(), Ordering::Relaxed);
    }
}

/// Decodes every complete frame in `framebuf`, matching FIFO against
/// `inflight`. Returns `false` on a protocol violation (which the caller
/// treats like an IO failure: reconnect).
fn drain_frames(
    framebuf: &mut FrameBuf,
    inflight: &mut VecDeque<Inflight>,
    tallies: &Tallies,
    hist: &LatencyHistogram,
    breaker: &mut Option<CircuitBreaker>,
) -> bool {
    loop {
        let frame = match framebuf.next_frame() {
            Ok(Some(f)) => f,
            Ok(None) => return true,
            Err(_) => return false,
        };
        let Ok(resp) = decode_response(frame) else {
            return false;
        };
        let Some(f) = inflight.pop_front() else {
            // A response nobody asked for.
            return false;
        };
        if f.measured {
            tallies.completed.fetch_add(1, Ordering::Relaxed);
        }
        let mut success = true;
        match resp {
            Response::Overloaded { .. } => {
                success = false;
                if f.measured {
                    tallies.overloaded.fetch_add(1, Ordering::Relaxed);
                }
            }
            Response::DeadlineExceeded => {
                if f.measured {
                    tallies.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
                }
            }
            Response::Error { .. } => {
                if f.measured {
                    tallies.server_errors.fetch_add(1, Ordering::Relaxed);
                }
            }
            ref r if kind_matches(f.kind, r) => {
                if f.measured {
                    tallies.ok.fetch_add(1, Ordering::Relaxed);
                    let ns = f.scheduled.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
                    hist.record(ns);
                }
            }
            _ => return false,
        }
        if let Some(b) = breaker.as_mut() {
            if success {
                b.on_success();
            } else {
                b.on_overloaded();
            }
        }
    }
}

fn kind_matches(kind: Kind, resp: &Response<'_>) -> bool {
    matches!(
        (kind, resp),
        (Kind::Get, Response::Value { .. })
            | (Kind::Set, Response::Done)
            | (Kind::Del, Response::Deleted { .. })
            | (Kind::Incr, Response::Counter { .. })
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use gocc_server::{spawn, Mode, ServerConfig};

    #[test]
    fn open_loop_completes_against_a_live_server() {
        gocc_gosync::set_procs(8);
        let handle = spawn(ServerConfig {
            mode: Mode::Gocc,
            port: 0,
            workers: 2,
            shards: 2,
            capacity_per_shard: 4096,
            ..ServerConfig::default()
        })
        .expect("spawn");
        let cfg = OpenLoopConfig {
            conns: 2,
            rate_per_conn: 500.0,
            warmup: Duration::from_millis(50),
            duration: Duration::from_millis(300),
            deadline_us: Some(1_000_000),
            ..OpenLoopConfig::default()
        };
        let r = run_open_loop(handle.port(), &cfg).expect("run");
        assert!(r.offered > 0, "{r:?}");
        assert!(r.ok > 0, "{r:?}");
        assert_eq!(r.client_errors, 0, "{r:?}");
        assert_eq!(r.server_errors, 0, "{r:?}");
        // Everything sent was answered: completion accounting balances.
        assert_eq!(r.completed, r.sent, "{r:?}");
        assert!(r.latency.count > 0);
        handle.request_shutdown();
        let _ = handle.join();
    }

    #[test]
    fn breaker_sheds_client_side_when_server_is_pinned_shedding() {
        gocc_gosync::set_procs(8);
        let mut scfg = ServerConfig {
            mode: Mode::Gocc,
            port: 0,
            workers: 1,
            shards: 2,
            capacity_per_shard: 1024,
            ..ServerConfig::default()
        };
        // Pin the server in Shedding: every write is answered Overloaded.
        scfg.brownout.recover_obs = u32::MAX;
        let handle = spawn(scfg).expect("spawn");
        handle.state().brownout().observe(1e18, 1e18);
        handle.state().brownout().observe(1e18, 1e18);
        let cfg = OpenLoopConfig {
            conns: 1,
            rate_per_conn: 800.0,
            warmup: Duration::from_millis(20),
            duration: Duration::from_millis(400),
            read_frac: 0.0, // all writes → all shed
            breaker: Some(BreakerConfig {
                open_after: 3,
                cooldown: Duration::from_millis(30),
            }),
            ..OpenLoopConfig::default()
        };
        let r = run_open_loop(handle.port(), &cfg).expect("run");
        assert!(r.overloaded > 0, "server must shed writes: {r:?}");
        assert!(r.breaker_trips >= 1, "breaker must open: {r:?}");
        assert!(
            r.breaker_dropped > 0,
            "an open breaker must shed arrivals client-side: {r:?}"
        );
        handle.request_shutdown();
        let _ = handle.join();
    }
}
