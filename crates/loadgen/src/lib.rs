//! Load generation and client harnesses for `goccd`.
//!
//! [`run_point`] drives a live server: [`LoadConfig::conns`] connections,
//! one thread each, with a read/write mix over a Zipf-skewed key
//! population, arriving on a [`Schedule`] — a window of tickets kept in
//! flight (the closed loop) or a fixed rate (the open loop). The two share
//! one per-connection loop ([`driver`]), so they measure alike: latency
//! from each arrival's due instant, recorded in the shared log2 histogram
//! from `gocc-telemetry` — the same bucketing the runtime uses for
//! critical-section latency, so client-side and server-side distributions
//! are directly comparable.
//!
//! Everything is seeded: connection *c* of a point draws from its own
//! `SplitMix64` stream derived from the seed, so two runs against equal
//! servers issue identical request streams per connection (arrival
//! interleaving is the only nondeterminism).
//!
//! Around it: the control-plane fetches (STATS, TRACE, HEALTH, SHUTDOWN),
//! the resilient and cluster clients, and the soak kit every harness
//! binary stands on.

pub mod cluster;
pub mod driver;
pub mod resilient;
pub mod soak;
pub mod zipf;

use gocc_telemetry::JsonValue;
use gocc_wire::{Request, Response};

pub use cluster::{ClusterClient, Session};
pub use driver::{run_point, Counts, LoadConfig, PointResult, Schedule};
pub use resilient::{connect_with_retry, is_lost, ClientConfig, ResilientClient};

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

    fn fake_mode_result(completed: u64, elapsed_ms: u64) -> ModeResult {
        ModeResult {
            point: PointResult {
                conns: 2,
                counts: Counts {
                    completed,
                    ..Counts::default()
                },
                elapsed: std::time::Duration::from_millis(elapsed_ms),
                latency: Default::default(),
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
