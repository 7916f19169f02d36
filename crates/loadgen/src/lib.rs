//! Closed-loop load generation for `goccd`.
//!
//! The generator opens `workers` connections, each driven by one thread in
//! a closed loop (send one request, wait for its response, repeat), with a
//! configurable read/write mix over a Zipf-skewed key population. After a
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

use std::io;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::time::{Duration, Instant};

use gocc_telemetry::{HistogramSnapshot, JsonValue, LatencyHistogram, SplitMix64};
use gocc_wire::{decode_response, Request, Response};

pub use cluster::{ClusterClient, Session};
pub use openloop::{run_open_loop, OpenLoopConfig, OpenLoopResult};
pub use resilient::{
    connect_with_retry, BreakerConfig, BreakerState, CircuitBreaker, ClientConfig, ResilientClient,
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
            let cfg = cfg.clone();
            s.spawn(move || {
                // Depth 1 keeps the original one-at-a-time driver byte for
                // byte — unpipelined results stay comparable across
                // versions of the pipelined driver.
                if cfg.pipeline > 1 {
                    drive_pipelined(port, &cfg, zipf, seed, phase, tallies, hist);
                } else {
                    drive_connection(port, &cfg, zipf, seed, phase, tallies, hist);
                }
            });
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

/// Whether a response is the right shape for the request that elicited it.
fn response_matches(req: &Request<'_>, resp: &Response<'_>) -> bool {
    matches!(
        (req, resp),
        (Request::Get { .. }, Response::Value { .. })
            | (Request::Set { .. }, Response::Done)
            | (Request::Del { .. }, Response::Deleted { .. })
            | (Request::Incr { .. }, Response::Counter { .. })
            | (Request::Scan { .. }, Response::Entries { .. })
            | (Request::Stats, Response::Stats { .. })
            | (Request::Trace { .. }, Response::Trace { .. })
            | (Request::Flush, Response::Flushed { .. })
            | (Request::Shutdown, Response::Bye)
    )
}

/// Give up on a connection whose failures exhaust retries this many times
/// in a row — the server is gone, not merely faulty.
const MAX_CONSECUTIVE_FAILURES: u32 = 5;

fn drive_connection(
    port: u16,
    cfg: &LoadConfig,
    zipf: &Zipf,
    seed: u64,
    phase: &AtomicU8,
    tallies: &PointTallies,
    hist: &LatencyHistogram,
) {
    // Independent streams for the workload draw and the backoff jitter so
    // resilience events never perturb the request sequence.
    let mut client = ResilientClient::new(port, cfg.client.clone(), seed ^ 0xA076_1D64_78BD_642F);
    let mut rng = SplitMix64::new(seed);
    let mut keybuf = String::new();
    let mut respbuf = Vec::new();
    let mut local_ops = 0u64;
    let mut op_index = 0u64;
    let mut consecutive_failures = 0u32;

    loop {
        let ph = phase.load(Ordering::Acquire);
        if ph == PHASE_DONE {
            break;
        }
        op_index += 1;
        use std::fmt::Write as _;
        keybuf.clear();
        let _ = write!(keybuf, "key-{}", zipf.sample(&mut rng));
        let req = if cfg.scan_every > 0 && op_index.is_multiple_of(cfg.scan_every) {
            Request::Scan {
                limit: cfg.scan_limit,
            }
        } else if rng.chance(cfg.read_frac) {
            Request::Get {
                key: keybuf.as_bytes(),
            }
        } else {
            match rng.below(8) {
                0 => Request::Del {
                    key: keybuf.as_bytes(),
                },
                1 => Request::Incr {
                    key: keybuf.as_bytes(),
                    delta: 1,
                },
                _ => Request::Set {
                    key: keybuf.as_bytes(),
                    value: rng.next_u64(),
                    ttl: 0,
                },
            }
        };

        let t0 = Instant::now();
        // Idempotent verbs replay over fresh connections; INCR must not
        // (a lost response leaves the increment's fate unknown).
        let sent = match req {
            Request::Incr { .. } => client.call_no_replay(&req, &mut respbuf),
            _ => client.call(&req, &mut respbuf),
        };
        if sent.is_err() {
            tallies.client_errors.fetch_add(1, Ordering::Relaxed);
            consecutive_failures += 1;
            if consecutive_failures >= MAX_CONSECUTIVE_FAILURES {
                break;
            }
            continue;
        }
        consecutive_failures = 0;
        match decode_response(&respbuf) {
            Ok(Response::Error { .. }) => {
                tallies.server_errors.fetch_add(1, Ordering::Relaxed);
            }
            // Overload-protection responses are valid answers to any data
            // verb: keep the loop running.
            Ok(Response::Overloaded { .. } | Response::DeadlineExceeded) => {}
            Ok(ref resp) if response_matches(&req, resp) => {}
            Ok(_) | Err(_) => {
                // A mis-shaped response is a protocol bug, not chaos:
                // stop this connection so the point reports it.
                tallies.client_errors.fetch_add(1, Ordering::Relaxed);
                break;
            }
        }
        if ph == PHASE_MEASURE {
            hist.record(t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
            local_ops += 1;
        }
    }
    tallies.ops.fetch_add(local_ops, Ordering::SeqCst);
}

/// One outstanding pipelined request: everything needed to replay it over
/// a fresh connection (the op spec, owned) plus the submit instant the
/// latency measurement runs from.
struct PipeInflight {
    submitted: Instant,
    measured: bool,
    op: PipeOp,
}

/// Owned, replayable form of one workload op (key index instead of the
/// formatted key string).
#[derive(Clone, Copy)]
enum PipeOp {
    Get { key: usize },
    Set { key: usize, value: u64 },
    Del { key: usize },
    Incr { key: usize },
    Scan { limit: u32 },
}

impl PipeOp {
    /// Encodes this op as a wire frame onto `outbuf`.
    fn encode(self, keybuf: &mut String, outbuf: &mut Vec<u8>) {
        use std::fmt::Write as _;
        keybuf.clear();
        let req = match self {
            PipeOp::Get { key } => {
                let _ = write!(keybuf, "key-{key}");
                Request::Get {
                    key: keybuf.as_bytes(),
                }
            }
            PipeOp::Set { key, value } => {
                let _ = write!(keybuf, "key-{key}");
                Request::Set {
                    key: keybuf.as_bytes(),
                    value,
                    ttl: 0,
                }
            }
            PipeOp::Del { key } => {
                let _ = write!(keybuf, "key-{key}");
                Request::Del {
                    key: keybuf.as_bytes(),
                }
            }
            PipeOp::Incr { key } => {
                let _ = write!(keybuf, "key-{key}");
                Request::Incr {
                    key: keybuf.as_bytes(),
                    delta: 1,
                }
            }
            PipeOp::Scan { limit } => Request::Scan { limit },
        };
        gocc_wire::encode_request(&req, outbuf);
    }

    /// Whether a lost response leaves the op safe to re-send. INCR is the
    /// one non-idempotent verb: replaying it could double-count.
    fn idempotent(self) -> bool {
        !matches!(self, PipeOp::Incr { .. })
    }

    /// Whether `resp` is the right success shape for this op (overload /
    /// deadline / error responses are matched separately).
    fn matches(self, resp: &Response<'_>) -> bool {
        matches!(
            (self, resp),
            (PipeOp::Get { .. }, Response::Value { .. })
                | (PipeOp::Set { .. }, Response::Done)
                | (PipeOp::Del { .. }, Response::Deleted { .. })
                | (PipeOp::Incr { .. }, Response::Counter { .. })
                | (PipeOp::Scan { .. }, Response::Entries { .. })
        )
    }
}

/// Draws the next workload op — the exact mix and RNG draw order of
/// [`drive_connection`], in owned form.
fn draw_pipe_op(cfg: &LoadConfig, zipf: &Zipf, rng: &mut SplitMix64, op_index: u64) -> PipeOp {
    let key = zipf.sample(rng);
    if cfg.scan_every > 0 && op_index.is_multiple_of(cfg.scan_every) {
        PipeOp::Scan {
            limit: cfg.scan_limit,
        }
    } else if rng.chance(cfg.read_frac) {
        PipeOp::Get { key }
    } else {
        match rng.below(8) {
            0 => PipeOp::Del { key },
            1 => PipeOp::Incr { key },
            _ => PipeOp::Set {
                key,
                value: rng.next_u64(),
            },
        }
    }
}

/// The pipelined closed loop: keep `cfg.pipeline` frames outstanding on
/// one nonblocking socket, match responses FIFO (the server answers every
/// admitted frame in order), measure submit→match per request. On an I/O
/// failure the connection is rebuilt and the outstanding *idempotent*
/// requests are replayed in order; outstanding INCRs are dropped and
/// counted as client errors — their fate is unknown, same contract as the
/// resilient client's no-replay rule.
fn drive_pipelined(
    port: u16,
    cfg: &LoadConfig,
    zipf: &Zipf,
    seed: u64,
    phase: &AtomicU8,
    tallies: &PointTallies,
    hist: &LatencyHistogram,
) {
    use std::io::{Read, Write};

    let depth = cfg.pipeline;
    // Same stream split as drive_connection: workload draws never depend
    // on resilience events.
    let mut rng = SplitMix64::new(seed);
    let mut backoff_rng = SplitMix64::new(seed ^ 0xA076_1D64_78BD_642F);
    let connect = |backoff_rng: &mut SplitMix64| -> io::Result<std::net::TcpStream> {
        let stream = connect_with_retry(port, &cfg.client, backoff_rng)?;
        stream.set_nonblocking(true)?;
        Ok(stream)
    };
    let Ok(mut stream) = connect(&mut backoff_rng) else {
        tallies.client_errors.fetch_add(1, Ordering::Relaxed);
        return;
    };

    let mut inflight: std::collections::VecDeque<PipeInflight> =
        std::collections::VecDeque::with_capacity(depth);
    let mut outbuf: Vec<u8> = Vec::new();
    let mut framebuf = gocc_wire::FrameBuf::new();
    let mut readbuf = [0u8; 16 * 1024];
    let mut keybuf = String::new();
    let mut local_ops = 0u64;
    let mut op_index = 0u64;
    let mut consecutive_failures = 0u32;

    'outer: loop {
        let ph = phase.load(Ordering::Acquire);
        if ph == PHASE_DONE {
            break;
        }

        // Top up to the configured depth.
        while inflight.len() < depth {
            op_index += 1;
            let op = draw_pipe_op(cfg, zipf, &mut rng, op_index);
            op.encode(&mut keybuf, &mut outbuf);
            inflight.push_back(PipeInflight {
                submitted: Instant::now(),
                measured: ph == PHASE_MEASURE,
                op,
            });
        }

        // Push pending frames as far as the socket allows.
        let mut io_failed = false;
        let mut progressed = false;
        while !outbuf.is_empty() {
            match stream.write(&outbuf) {
                Ok(0) => {
                    io_failed = true;
                    break;
                }
                Ok(k) => {
                    outbuf.drain(..k);
                    progressed = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    io_failed = true;
                    break;
                }
            }
        }

        // Drain and FIFO-match whatever responses have arrived.
        if !io_failed {
            loop {
                match stream.read(&mut readbuf) {
                    Ok(0) => {
                        io_failed = true;
                        break;
                    }
                    Ok(k) => {
                        framebuf.extend(&readbuf[..k]);
                        match match_pipe_frames(
                            &mut framebuf,
                            &mut inflight,
                            tallies,
                            hist,
                            &mut local_ops,
                        ) {
                            Ok(matched) => progressed |= matched,
                            Err(()) => {
                                // Mis-shaped response: protocol bug, not
                                // chaos. Stop so the point reports it.
                                tallies.client_errors.fetch_add(1, Ordering::Relaxed);
                                break 'outer;
                            }
                        }
                        if k < readbuf.len() {
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
            consecutive_failures += 1;
            if consecutive_failures >= MAX_CONSECUTIVE_FAILURES {
                tallies.client_errors.fetch_add(1, Ordering::Relaxed);
                break;
            }
            outbuf.clear();
            framebuf = gocc_wire::FrameBuf::new();
            let pending: Vec<PipeInflight> = inflight.drain(..).collect();
            match connect(&mut backoff_rng) {
                Ok(s) => stream = s,
                Err(_) => {
                    tallies.client_errors.fetch_add(1, Ordering::Relaxed);
                    break;
                }
            }
            // Replay outstanding idempotent requests in order; drop the
            // non-idempotent ones.
            for f in pending {
                if f.op.idempotent() {
                    f.op.encode(&mut keybuf, &mut outbuf);
                    inflight.push_back(f);
                } else {
                    tallies.client_errors.fetch_add(1, Ordering::Relaxed);
                }
            }
            continue;
        }
        if progressed {
            consecutive_failures = 0;
        } else {
            // Nothing moved: responses are in flight. Nap briefly instead
            // of spinning on the nonblocking socket.
            std::thread::sleep(Duration::from_micros(20));
        }
    }

    tallies.ops.fetch_add(local_ops, Ordering::SeqCst);
}

/// Decodes every complete frame in `framebuf`, matching FIFO against
/// `inflight` with the same response classification as
/// [`drive_connection`]. `Ok(true)` when at least one frame matched;
/// `Err(())` on a protocol violation (mis-shaped or unsolicited
/// response).
fn match_pipe_frames(
    framebuf: &mut gocc_wire::FrameBuf,
    inflight: &mut std::collections::VecDeque<PipeInflight>,
    tallies: &PointTallies,
    hist: &LatencyHistogram,
    local_ops: &mut u64,
) -> Result<bool, ()> {
    let mut matched = false;
    loop {
        let frame = match framebuf.next_frame() {
            Ok(Some(f)) => f,
            Ok(None) => return Ok(matched),
            Err(_) => return Err(()),
        };
        let Ok(resp) = decode_response(frame) else {
            return Err(());
        };
        let Some(f) = inflight.pop_front() else {
            return Err(());
        };
        match resp {
            Response::Error { .. } => {
                tallies.server_errors.fetch_add(1, Ordering::Relaxed);
            }
            Response::Overloaded { .. } | Response::DeadlineExceeded => {}
            ref r if f.op.matches(r) => {}
            _ => return Err(()),
        }
        matched = true;
        if f.measured {
            hist.record(f.submitted.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
            *local_ops += 1;
        }
    }
}

/// A fetched-and-validated STATS document.
#[derive(Clone, Debug)]
pub struct StatsDoc {
    /// The raw JSON exactly as served.
    pub raw: String,
    /// The parse (by `gocc-telemetry`'s own parser — the acceptance check).
    pub parsed: JsonValue,
}

impl StatsDoc {
    /// The server's reported `"mode"`.
    #[must_use]
    pub fn mode(&self) -> Option<&str> {
        self.parsed.get("mode").and_then(JsonValue::as_str)
    }
}

fn control_call(port: u16, req: &Request<'_>) -> Result<Vec<u8>, String> {
    // Bounded connects + timeouts: control-plane calls against a dead or
    // wedged daemon fail in seconds, they never hang a script.
    let mut client = ResilientClient::new(port, ClientConfig::default(), 0x0C07);
    let mut respbuf = Vec::new();
    match client.call_no_replay(req, &mut respbuf) {
        Ok(()) => Ok(respbuf),
        Err(e) => Err(format!("control call: {e}")),
    }
}

/// Fetches STATS and parses it with the telemetry JSON parser; any parse
/// failure is an error (this is the wire-level acceptance check scripts
/// rely on).
pub fn fetch_stats(port: u16) -> Result<StatsDoc, String> {
    let respbuf = control_call(port, &Request::Stats)?;
    let Response::Stats { json } =
        decode_response(&respbuf).map_err(|e| format!("bad stats response: {e}"))?
    else {
        return Err("STATS returned a non-stats response".into());
    };
    let parsed = JsonValue::parse(json).map_err(|e| format!("STATS JSON does not parse: {e}"))?;
    Ok(StatsDoc {
        raw: json.to_string(),
        parsed,
    })
}

/// A drained-and-validated TRACE document.
#[derive(Clone, Debug)]
pub struct TraceDoc {
    /// The raw JSON exactly as served.
    pub raw: String,
    /// The parse (through `gocc-telemetry`'s own parser).
    pub parsed: JsonValue,
}

impl TraceDoc {
    /// The `"spans"` array.
    #[must_use]
    pub fn spans(&self) -> &[JsonValue] {
        self.parsed
            .get("spans")
            .and_then(JsonValue::as_array)
            .unwrap_or(&[])
    }
}

/// Drains up to `max` flight-recorder spans from a live daemon (`0` asks
/// for the server-side default cap). TRACE is *draining* — a lost response
/// loses spans — so this never replays over a fresh connection.
pub fn fetch_trace(port: u16, max: u32) -> Result<TraceDoc, String> {
    let respbuf = control_call(port, &Request::Trace { max })?;
    let Response::Trace { json } =
        decode_response(&respbuf).map_err(|e| format!("bad trace response: {e}"))?
    else {
        return Err("TRACE returned a non-trace response".into());
    };
    let parsed = JsonValue::parse(json).map_err(|e| format!("TRACE JSON does not parse: {e}"))?;
    Ok(TraceDoc {
        raw: json.to_string(),
        parsed,
    })
}

/// Fetches the server's HEALTH triple `(state, shed_total,
/// deadline_misses)` — the cheap probe scripts poll while waiting for a
/// browned-out server to recover.
pub fn fetch_health(port: u16) -> Result<(u8, u64, u64), String> {
    let respbuf = control_call(port, &Request::Health)?;
    match decode_response(&respbuf) {
        Ok(Response::Health {
            state,
            shed_total,
            deadline_misses,
        }) => Ok((state, shed_total, deadline_misses)),
        Ok(other) => Err(format!("HEALTH answered {other:?}")),
        Err(e) => Err(format!("bad health response: {e}")),
    }
}

/// Sends SHUTDOWN and confirms the Bye.
pub fn send_shutdown(port: u16) -> Result<(), String> {
    let respbuf = control_call(port, &Request::Shutdown)?;
    match decode_response(&respbuf) {
        Ok(Response::Bye) => Ok(()),
        Ok(other) => Err(format!("SHUTDOWN answered {other:?}")),
        Err(e) => Err(format!("bad shutdown response: {e}")),
    }
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

    #[test]
    fn response_matching_is_strict() {
        assert!(response_matches(
            &Request::Get { key: b"k" },
            &Response::Value {
                found: true,
                value: 1
            }
        ));
        assert!(!response_matches(
            &Request::Get { key: b"k" },
            &Response::Done
        ));
        assert!(!response_matches(
            &Request::Set {
                key: b"k",
                value: 1,
                ttl: 0
            },
            &Response::Bye
        ));
    }
}
