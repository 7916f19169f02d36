//! Closed-loop load generation for `goccd`.
//!
//! The generator opens `workers` connections, each driven by one thread in
//! a closed loop (keep a window of requests in flight, one by default, and
//! send the next as each answer arrives), with a configurable read/write
//! mix over a Zipf-skewed key population. After a
//! warmup phase, operations completed inside the measurement window are
//! counted and their request→response latency recorded in the shared
//! log2 histogram from `gocc-telemetry` — the same bucketing the runtime
//! uses for critical-section latency, so client-side and server-side
//! distributions are directly comparable.
//!
//! Everything is seeded: worker *w* of a point draws from
//! `SplitMix64::new(seed ^ w)`, so two runs against equal servers issue
//! identical request streams per connection (arrival interleaving is the
//! only nondeterminism, as in any closed-loop harness).

pub mod cluster;
pub mod openloop;
pub mod resilient;
pub mod soak;
pub mod zipf;

use std::collections::VecDeque;
use std::io;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::time::{Duration, Instant};

use gocc_telemetry::{HistogramSnapshot, JsonValue, LatencyHistogram, SplitMix64};
use gocc_wire::{Pipe, Request, Response, Ticket};

pub use cluster::{ClusterClient, Session};
pub use openloop::{run_open_loop, OpenLoopConfig, OpenLoopResult};
pub use resilient::{
    connect_with_retry, is_lost, BreakerConfig, BreakerState, CircuitBreaker, ClientConfig,
    ResilientClient,
};
use zipf::Zipf;

/// Workload shape knobs (shared by every point of a sweep).
#[derive(Clone, Debug)]
pub struct LoadConfig {
    /// Fraction of operations that are GETs (the rest split into
    /// SET/DEL/INCR at 6:1:1).
    pub read_frac: f64,
    /// Number of distinct keys (`key-0` … `key-{n-1}`).
    pub keyspace: usize,
    /// Zipf skew exponent (0 = uniform, 0.99 = YCSB-style hot keys).
    pub zipf_s: f64,
    /// Issue one SCAN every this many operations per connection (0 =
    /// never). SCANs are the large-read-set outlier in the mix.
    pub scan_every: u64,
    /// Entry limit per SCAN.
    pub scan_limit: u32,
    /// Ramp-up time before the measurement window opens.
    pub warmup: Duration,
    /// Measurement window length.
    pub window: Duration,
    /// Base RNG seed.
    pub seed: u64,
    /// Frames kept outstanding per connection. 1 (the default) is the
    /// classic closed loop: send, wait, repeat. Above 1 each connection
    /// keeps this many requests in flight over one socket, matching
    /// responses FIFO — the client-side half of the batching amortization
    /// (many frames per round-trip, many requests per server pump pass).
    pub pipeline: usize,
    /// Connection resilience (timeouts, bounded retries, replay).
    pub client: ClientConfig,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            read_frac: 0.9,
            keyspace: 4096,
            zipf_s: 0.99,
            scan_every: 2048,
            scan_limit: 64,
            warmup: Duration::from_millis(200),
            window: Duration::from_millis(800),
            seed: 42,
            pipeline: 1,
            client: ClientConfig::default(),
        }
    }
}

/// One measured `(mode, workers)` point, client side.
#[derive(Clone, Debug)]
pub struct PointResult {
    /// Concurrent closed-loop connections.
    pub workers: usize,
    /// Operations completed inside the measurement window.
    pub ops: u64,
    /// Actual measured window length.
    pub elapsed: Duration,
    /// Request→response latency of measured operations.
    pub latency: HistogramSnapshot,
    /// IO/decode/protocol failures on the client side that exhausted
    /// their retries.
    pub client_errors: u64,
    /// `Response::Error` frames received.
    pub server_errors: u64,
}

impl PointResult {
    /// Throughput over the measurement window.
    #[must_use]
    pub fn ops_per_sec(&self) -> f64 {
        self.ops as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

const PHASE_WARMUP: u8 = 0;
const PHASE_MEASURE: u8 = 1;
const PHASE_DONE: u8 = 2;

/// Cross-thread tallies shared by one point's connection drivers.
#[derive(Default)]
struct PointTallies {
    ops: AtomicU64,
    client_errors: AtomicU64,
    server_errors: AtomicU64,
}

/// Runs one closed-loop point against a live server.
pub fn run_point(port: u16, workers: usize, cfg: &LoadConfig) -> io::Result<PointResult> {
    assert!(workers >= 1);
    let zipf = Zipf::new(cfg.keyspace, cfg.zipf_s);
    let phase = AtomicU8::new(PHASE_WARMUP);
    let tallies = PointTallies::default();
    let hist = LatencyHistogram::new();

    let elapsed = std::thread::scope(|s| {
        for w in 0..workers {
            let (zipf, phase, tallies, hist) = (&zipf, &phase, &tallies, &hist);
            let seed = cfg.seed ^ (w as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            s.spawn(move || drive_window(port, cfg, zipf, seed, phase, tallies, hist));
        }
        std::thread::sleep(cfg.warmup);
        phase.store(PHASE_MEASURE, Ordering::SeqCst);
        let t0 = Instant::now();
        std::thread::sleep(cfg.window);
        phase.store(PHASE_DONE, Ordering::SeqCst);
        t0.elapsed()
        // Scope end joins the workers.
    });

    Ok(PointResult {
        workers,
        ops: tallies.ops.load(Ordering::SeqCst),
        elapsed,
        latency: hist.snapshot(),
        client_errors: tallies.client_errors.load(Ordering::SeqCst),
        server_errors: tallies.server_errors.load(Ordering::SeqCst),
    })
}

/// Give up on a connection whose failures come this many times in a row
/// with no answer between them — the server is gone, not merely faulty.
const MAX_CONSECUTIVE_FAILURES: u32 = 5;

/// Draws the next workload request into `keybuf`: a key from the Zipf
/// population, then `scan` when given, else GET with `read_frac`, else
/// SET/DEL/INCR at 6:1:1.
pub(crate) fn draw_request<'k>(
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

/// One connection's closed loop: a window of `cfg.pipeline` tickets kept
/// full on one [`Pipe`], latency measured from submit to answer. At depth
/// 1 the socket blocks with a read timeout; deeper windows poll a
/// non-blocking socket and nap 20 µs when nothing arrived. After an I/O
/// failure the connection is rebuilt and the pipe re-sends what its verb
/// allows; every lost ticket (an INCR whose fate is unknown) counts as a
/// client error.
fn drive_window(
    port: u16,
    cfg: &LoadConfig,
    zipf: &Zipf,
    seed: u64,
    phase: &AtomicU8,
    tallies: &PointTallies,
    hist: &LatencyHistogram,
) {
    let depth = cfg.pipeline.max(1);
    // Independent streams for the workload draw and the backoff jitter so
    // resilience events never perturb the request sequence.
    let mut rng = SplitMix64::new(seed);
    let mut backoff_rng = SplitMix64::new(seed ^ 0xA076_1D64_78BD_642F);
    let connect = |backoff_rng: &mut SplitMix64| -> io::Result<TcpStream> {
        let stream = connect_with_retry(port, &cfg.client, backoff_rng)?;
        stream.set_nonblocking(depth > 1)?;
        Ok(stream)
    };
    let Ok(stream) = connect(&mut backoff_rng) else {
        tallies.client_errors.fetch_add(1, Ordering::Relaxed);
        return;
    };
    let mut pipe = Pipe::new(stream);
    // Per ticket in flight, oldest first: submit instant, measured.
    let mut window: VecDeque<(Ticket, Instant, bool)> = VecDeque::with_capacity(depth);
    let mut keybuf = String::new();
    let mut local_ops = 0u64;
    let mut op_index = 0u64;
    let mut consecutive_failures = 0u32;

    'run: loop {
        let ph = phase.load(Ordering::Acquire);
        if ph == PHASE_DONE {
            break;
        }
        while window.len() < depth {
            op_index += 1;
            let scan = cfg.scan_every > 0 && op_index.is_multiple_of(cfg.scan_every);
            let scan = scan.then_some(cfg.scan_limit);
            let req = draw_request(zipf, &mut rng, cfg.read_frac, scan, &mut keybuf);
            let ticket = pipe.submit(&req, None);
            window.push_back((ticket, Instant::now(), ph == PHASE_MEASURE));
        }

        match pipe.pump() {
            Ok(true) => {}
            // Nothing arrived: answers are in flight. Nap briefly instead
            // of spinning on the nonblocking socket.
            Ok(false) if depth > 1 => {
                std::thread::sleep(Duration::from_micros(20));
                continue;
            }
            // The blocking read timed out, or the connection failed.
            Ok(false) | Err(_) => {
                consecutive_failures += 1;
                let retry = consecutive_failures < MAX_CONSECUTIVE_FAILURES;
                let Some(stream) = retry.then(|| connect(&mut backoff_rng).ok()).flatten() else {
                    tallies.client_errors.fetch_add(1, Ordering::Relaxed);
                    break;
                };
                let lost = pipe.reset(stream);
                tallies
                    .client_errors
                    .fetch_add(lost.len() as u64, Ordering::Relaxed);
                window.retain(|(t, ..)| !lost.contains(t));
                continue;
            }
        }
        loop {
            match pipe.answer() {
                Ok(Some((_, resp))) => {
                    let (_, submitted, measured) = window.pop_front().expect("answers a ticket");
                    if matches!(resp, Response::Error { .. }) {
                        tallies.server_errors.fetch_add(1, Ordering::Relaxed);
                    }
                    consecutive_failures = 0;
                    if measured {
                        hist.record(submitted.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
                        local_ops += 1;
                    }
                }
                Ok(None) => break,
                Err(_) => {
                    // A mis-shaped response is a protocol bug, not chaos:
                    // stop this connection so the point reports it.
                    tallies.client_errors.fetch_add(1, Ordering::Relaxed);
                    break 'run;
                }
            }
        }
    }

    tallies.ops.fetch_add(local_ops, Ordering::SeqCst);
}

/// A fetched STATS or TRACE document, validated by `gocc-telemetry`'s
/// own parser (the wire-level acceptance check scripts rely on).
#[derive(Clone, Debug)]
pub struct JsonDoc {
    /// The raw JSON exactly as served.
    pub raw: String,
    /// The parse.
    pub parsed: JsonValue,
}

impl JsonDoc {
    /// The server's reported `"mode"` (STATS).
    #[must_use]
    pub fn mode(&self) -> Option<&str> {
        self.parsed.get("mode").and_then(JsonValue::as_str)
    }
}

/// One control-plane request over a fresh connection; `take` keeps what
/// it wants of the answer. Bounded connects + timeouts: control-plane
/// calls against a dead or wedged daemon fail in seconds, they never hang
/// a script.
fn control_call<T>(
    port: u16,
    req: &Request<'_>,
    take: impl FnOnce(Response<'_>) -> Result<T, String>,
) -> Result<T, String> {
    let mut client = ResilientClient::new(port, ClientConfig::default(), 0x0C07);
    take(client.call(req).map_err(|e| format!("control call: {e}"))?)
}

/// Fetches a STATS or TRACE document; any parse failure is an error.
fn fetch_json(port: u16, req: &Request<'_>) -> Result<JsonDoc, String> {
    let raw = control_call(port, req, |resp| match resp {
        Response::Stats { json } | Response::Trace { json } => Ok(json.to_string()),
        other => Err(format!("{req:?} answered {other:?}")),
    })?;
    let parsed = JsonValue::parse(&raw).map_err(|e| format!("{req:?} JSON does not parse: {e}"))?;
    Ok(JsonDoc { raw, parsed })
}

/// Fetches and parses STATS.
pub fn fetch_stats(port: u16) -> Result<JsonDoc, String> {
    fetch_json(port, &Request::Stats)
}

/// Drains up to `max` flight-recorder spans from a live daemon (`0` asks
/// for the server-side default cap). TRACE is *draining* — a lost response
/// loses spans — so the pipe never replays it over a fresh connection.
pub fn fetch_trace(port: u16, max: u32) -> Result<JsonDoc, String> {
    fetch_json(port, &Request::Trace { max })
}

/// Fetches the server's HEALTH triple `(state, shed_total,
/// deadline_misses)` — the cheap probe scripts poll while waiting for a
/// browned-out server to recover.
pub fn fetch_health(port: u16) -> Result<(u8, u64, u64), String> {
    control_call(port, &Request::Health, |resp| match resp {
        Response::Health {
            state,
            shed_total,
            deadline_misses,
        } => Ok((state, shed_total, deadline_misses)),
        other => Err(format!("HEALTH answered {other:?}")),
    })
}

/// Sends SHUTDOWN and confirms the Bye.
pub fn send_shutdown(port: u16) -> Result<(), String> {
    control_call(port, &Request::Shutdown, |resp| match resp {
        Response::Bye => Ok(()),
        other => Err(format!("SHUTDOWN answered {other:?}")),
    })
}

/// One mode's measurement at a worker count, plus the server's stats.
#[derive(Clone, Debug)]
pub struct ModeResult {
    /// Client-side measurement.
    pub point: PointResult,
    /// Raw server STATS JSON captured right after the window.
    pub stats_raw: String,
}

/// One row of the sweep: both modes at a worker count (either may be
/// absent in single-mode runs).
#[derive(Clone, Debug, Default)]
pub struct SweepRow {
    /// Closed-loop connection count.
    pub workers: usize,
    /// Frames outstanding per connection when this row was measured
    /// (1 = classic closed loop). `Default` yields 0; builders must set
    /// it explicitly so depth is never silently conflated across rows.
    pub pipeline: usize,
    /// Lock-mode result.
    pub lock: Option<ModeResult>,
    /// Gocc-mode result.
    pub gocc: Option<ModeResult>,
}

impl SweepRow {
    /// GOCC throughput gain over the lock baseline, in percent (the
    /// paper's reporting convention); `None` unless both modes ran.
    #[must_use]
    pub fn speedup_pct(&self) -> Option<f64> {
        let (l, g) = (self.lock.as_ref()?, self.gocc.as_ref()?);
        Some((g.point.ops_per_sec() / l.point.ops_per_sec().max(1e-9) - 1.0) * 100.0)
    }
}

/// Worker counts for a `1..=max` sweep: powers of two, plus `max` itself.
#[must_use]
pub fn sweep_counts(max: usize) -> Vec<usize> {
    let mut counts = Vec::new();
    let mut c = 1;
    while c < max {
        counts.push(c);
        c *= 2;
    }
    counts.push(max.max(1));
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_mode_result(ops: u64, elapsed_ms: u64) -> ModeResult {
        let hist = LatencyHistogram::new();
        for i in 0..100 {
            hist.record(1000 + i * 37);
        }
        ModeResult {
            point: PointResult {
                workers: 2,
                ops,
                elapsed: Duration::from_millis(elapsed_ms),
                latency: hist.snapshot(),
                client_errors: 0,
                server_errors: 1,
            },
            stats_raw: r#"{"server":"goccd","mode":"gocc","telemetry":null}"#.to_string(),
        }
    }

    #[test]
    fn sweep_counts_cover_powers_of_two_and_max() {
        assert_eq!(sweep_counts(1), vec![1]);
        assert_eq!(sweep_counts(4), vec![1, 2, 4]);
        assert_eq!(sweep_counts(6), vec![1, 2, 4, 6]);
        assert_eq!(sweep_counts(8), vec![1, 2, 4, 8]);
    }

    #[test]
    fn speedup_sign_convention() {
        let row = SweepRow {
            workers: 2,
            pipeline: 1,
            lock: Some(fake_mode_result(1000, 1000)),
            gocc: Some(fake_mode_result(1500, 1000)),
        };
        assert!((row.speedup_pct().unwrap() - 50.0).abs() < 1e-6);
        let partial = SweepRow {
            workers: 2,
            pipeline: 1,
            lock: None,
            gocc: Some(fake_mode_result(1500, 1000)),
        };
        assert!(partial.speedup_pct().is_none());
    }
}
