//! Client-side resilience: bounded connects, seeded exponential backoff,
//! and reconnect-with-replay.
//!
//! The load generator's original client treated any I/O hiccup as the end
//! of its connection's life. Under transport fault injection (or a
//! restarting server) that conflates *chaos* with *failure*. This module
//! provides the degradation contract instead:
//!
//! * **Connects are bounded**: [`connect_with_retry`] uses
//!   `TcpStream::connect_timeout` and a capped number of attempts, so a
//!   dead daemon fails fast instead of hanging a script.
//! * **Backoff is seeded**: retry delays are exponential with jitter drawn
//!   from a [`SplitMix64`], so a given client's retry schedule is a pure
//!   function of its seed (replay-by-seed, same contract as the fault
//!   plans in `gocc-faultplane`).
//! * **Replay is the pipe's**: [`ResilientClient::call`] reconnects after
//!   an I/O failure and lets [`Pipe::reset`] re-send the request when its
//!   verb is idempotent. INCR, TRACE and SHUTDOWN are never re-sent (a
//!   lost answer leaves their effect unknown); such a call fails with an
//!   error [`is_lost`] recognises.
//! * **Failures are classified**: `ConnectionRefused` means nothing is
//!   listening — the daemon is dead, not busy — so connects give up after
//!   [`ClientConfig::refused_attempts`] instead of burning the full
//!   backoff schedule reserved for transient errors (timeouts, resets).

use std::io;
use std::net::{Ipv4Addr, SocketAddr, TcpStream};
use std::time::Duration;

use gocc_telemetry::SplitMix64;
use gocc_wire::{Pipe, Request, Response};

/// Resilience knobs for one client connection.
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// Per-attempt TCP connect timeout.
    pub connect_timeout: Duration,
    /// Socket read timeout (a stalled server surfaces as an error the
    /// replay path handles, never a hang).
    pub read_timeout: Duration,
    /// Connect attempts before giving up (≥ 1). Applies to *transient*
    /// failures (timeouts, resets) — a refused connection gives up after
    /// [`ClientConfig::refused_attempts`] instead.
    pub connect_attempts: u32,
    /// Connect attempts when the failure is `ConnectionRefused`: nothing
    /// is listening, so retrying the full schedule only delays the
    /// inevitable (≥ 1).
    pub refused_attempts: u32,
    /// First backoff delay; doubles per failed attempt.
    pub backoff_base: Duration,
    /// Ceiling on any single backoff delay.
    pub backoff_cap: Duration,
    /// Send attempts per [`ResilientClient::call`] (≥ 1); each failure
    /// costs a reconnect.
    pub replay_attempts: u32,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Duration::from_secs(2),
            read_timeout: Duration::from_secs(10),
            connect_attempts: 3,
            refused_attempts: 2,
            backoff_base: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(250),
            replay_attempts: 8,
        }
    }
}

impl ClientConfig {
    /// A profile for fault-heavy runs: patient on replays, snappy on
    /// timeouts (injected stalls should cost milliseconds, not seconds).
    #[must_use]
    pub fn chaos() -> Self {
        ClientConfig {
            connect_timeout: Duration::from_secs(2),
            read_timeout: Duration::from_secs(2),
            connect_attempts: 5,
            refused_attempts: 2,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(50),
            replay_attempts: 20,
        }
    }
}

/// Exponential backoff with equal jitter: `d/2 + uniform(0, d/2)` where
/// `d = min(cap, base << attempt)`.
fn backoff_delay(cfg: &ClientConfig, attempt: u32, rng: &mut SplitMix64) -> Duration {
    let base = cfg.backoff_base.as_nanos().max(1) as u64;
    let exp = base.saturating_mul(1u64 << attempt.min(20));
    let capped = exp.min(cfg.backoff_cap.as_nanos().max(1) as u64);
    let half = capped / 2;
    Duration::from_nanos(half + rng.below(half.max(1)))
}

/// The bounded, classified retry loop, generic over the connect attempt
/// so the classification is unit-testable without sockets. Returns the
/// final result and the number of attempts actually made.
///
/// `ConnectionRefused` counts against [`ClientConfig::refused_attempts`]
/// (the daemon is dead — fail fast); every other error burns the full
/// [`ClientConfig::connect_attempts`] backoff schedule.
fn connect_loop<T>(
    cfg: &ClientConfig,
    rng: &mut SplitMix64,
    mut connect: impl FnMut() -> io::Result<T>,
) -> (io::Result<T>, u32) {
    let mut last: Option<io::Error> = None;
    let mut refused = 0u32;
    let mut attempts = 0u32;
    for attempt in 0..cfg.connect_attempts.max(1) {
        if attempt > 0 {
            std::thread::sleep(backoff_delay(cfg, attempt - 1, rng));
        }
        attempts += 1;
        match connect() {
            Ok(v) => return (Ok(v), attempts),
            Err(e) => {
                if e.kind() == io::ErrorKind::ConnectionRefused {
                    refused += 1;
                    if refused >= cfg.refused_attempts.max(1) {
                        return (Err(e), attempts);
                    }
                }
                last = Some(e);
            }
        }
    }
    (
        Err(last.unwrap_or_else(|| io::Error::other("zero connect attempts configured"))),
        attempts,
    )
}

/// Connects to `127.0.0.1:port` with per-attempt timeout and bounded,
/// backoff-spaced retries. A dead daemon (connection refused) fails after
/// [`ClientConfig::refused_attempts`]; transient failures get the full
/// schedule — at worst `connect_attempts × connect_timeout`, never a hang.
pub fn connect_with_retry(
    port: u16,
    cfg: &ClientConfig,
    rng: &mut SplitMix64,
) -> io::Result<TcpStream> {
    let addr = SocketAddr::from((Ipv4Addr::LOCALHOST, port));
    let (result, _) = connect_loop(cfg, rng, || {
        let stream = TcpStream::connect_timeout(&addr, cfg.connect_timeout)?;
        let _ = stream.set_nodelay(true);
        stream.set_read_timeout(Some(cfg.read_timeout))?;
        Ok(stream)
    });
    result
}

/// A request/response client that survives connection loss: a [`Pipe`]
/// at depth 1 plus the reconnect policy around [`Pipe::reset`].
///
/// The connection is established lazily and re-established after any I/O
/// failure; the pipe decides whether the request is sent again
/// ([`Request::replayable`]). [`ResilientClient::reconnects`] and
/// [`ResilientClient::replays`] expose how much resilience a run actually
/// consumed — chaos tests assert these are nonzero (faults really landed)
/// while correctness stays perfect.
pub struct ResilientClient {
    port: u16,
    cfg: ClientConfig,
    rng: SplitMix64,
    pipe: Option<Pipe<TcpStream>>,
    reconnects: u64,
    replays: u64,
}

/// Marks an error whose request may have been applied and, by its verb,
/// must not be sent again ([`is_lost`]).
#[derive(Debug)]
struct Lost(io::Error);

impl std::fmt::Display for Lost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "request lost, not replayed: {}", self.0)
    }
}

impl std::error::Error for Lost {}

/// Whether a [`ResilientClient::call`] failed after its request may have
/// reached the server with a verb that must not be sent again: its effect
/// is unknown, and no endpoint may be asked to apply it a second time.
#[must_use]
pub fn is_lost(e: &io::Error) -> bool {
    e.get_ref().is_some_and(|inner| inner.is::<Lost>())
}

impl ResilientClient {
    /// A client for `127.0.0.1:port`; `seed` drives its backoff jitter.
    #[must_use]
    pub fn new(port: u16, cfg: ClientConfig, seed: u64) -> Self {
        ResilientClient {
            port,
            cfg,
            rng: SplitMix64::new(seed),
            pipe: None,
            reconnects: 0,
            replays: 0,
        }
    }

    /// Times a connection was abandoned after an I/O failure.
    #[must_use]
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Requests re-sent over a fresh connection.
    #[must_use]
    pub fn replays(&self) -> u64 {
        self.replays
    }

    fn connect(&mut self) -> io::Result<TcpStream> {
        connect_with_retry(self.port, &self.cfg, &mut self.rng)
    }

    /// Sends `req` and waits for its answer. After an I/O failure the
    /// connection is rebuilt and the pipe re-sends the request if its verb
    /// allows, over up to [`ClientConfig::replay_attempts`] connections in
    /// all; a reconnect that fails its [`connect_with_retry`] schedule
    /// ends the call, so a dead endpoint costs one schedule. A request that
    /// may have been applied and must not be re-sent fails with an error
    /// [`is_lost`] reports.
    pub fn call(&mut self, req: &Request<'_>) -> io::Result<Response<'_>> {
        self.send(std::slice::from_ref(req), |_| {})?;
        self.answer()
    }

    /// Sends `reqs` as one burst — every frame written before any answer
    /// is read — and hands each answer, in order, to `each`. Failures are
    /// handled as in [`ResilientClient::call`], per request: after a lost
    /// connection the unanswered ones are re-sent if all may be.
    pub fn call_each(
        &mut self,
        reqs: &[Request<'_>],
        mut each: impl FnMut(Response<'_>),
    ) -> io::Result<()> {
        self.send(reqs, &mut each)?;
        each(self.answer()?);
        Ok(())
    }

    /// Submits `reqs`, hands every answer but the last to `each` and
    /// leaves the last one ready for [`ResilientClient::answer`].
    fn send(&mut self, reqs: &[Request<'_>], mut each: impl FnMut(Response<'_>)) -> io::Result<()> {
        assert!(!reqs.is_empty(), "nothing to send");
        let mut pipe = match self.pipe.take() {
            Some(pipe) if pipe.in_flight() == 0 => pipe,
            _ => Pipe::new(self.connect()?),
        };
        for req in reqs {
            pipe.submit(req, None);
        }
        let mut connections = 1;
        loop {
            let failure = match pipe.wait() {
                Ok(()) if pipe.in_flight() == 1 => break,
                Ok(()) => match pipe.answer() {
                    Ok(Some((_, resp))) => {
                        each(resp);
                        continue;
                    }
                    Ok(None) => unreachable!("wait leaves an answer ready"),
                    Err(e) => e,
                },
                Err(e) => e,
            };
            self.reconnects += 1;
            // A reset would give up every unanswered ticket whose verb is
            // not replayable: the call is lost whatever happens next.
            let unanswered = &reqs[reqs.len() - pipe.in_flight()..];
            if !unanswered.iter().all(Request::replayable) {
                return Err(io::Error::new(failure.kind(), Lost(failure)));
            }
            if connections >= self.cfg.replay_attempts.max(1) {
                return Err(failure);
            }
            let Ok(stream) = self.connect() else {
                return Err(failure);
            };
            let lost = pipe.reset(stream);
            debug_assert!(lost.is_empty(), "every unanswered verb is replayable");
            self.replays += unanswered.len() as u64;
            connections += 1;
        }
        self.pipe = Some(pipe);
        Ok(())
    }

    fn answer(&mut self) -> io::Result<Response<'_>> {
        let pipe = self.pipe.as_mut().expect("send leaves a connection");
        match pipe.answer()? {
            Some((_, resp)) => Ok(resp),
            None => unreachable!("send leaves an answer ready"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::time::Instant;

    fn free_port() -> u16 {
        // Bind-then-drop: the port is free again immediately after.
        TcpListener::bind((Ipv4Addr::LOCALHOST, 0))
            .unwrap()
            .local_addr()
            .unwrap()
            .port()
    }

    #[test]
    fn dead_daemon_fails_fast() {
        let port = free_port();
        let cfg = ClientConfig {
            connect_timeout: Duration::from_millis(200),
            connect_attempts: 3,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(5),
            ..ClientConfig::default()
        };
        let t0 = Instant::now();
        let err = connect_with_retry(port, &cfg, &mut SplitMix64::new(1));
        assert!(err.is_err(), "nothing is listening on {port}");
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "bounded retries must fail fast, took {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn backoff_is_seeded_and_capped() {
        let cfg = ClientConfig {
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(40),
            ..ClientConfig::default()
        };
        let series = |seed: u64| -> Vec<Duration> {
            let mut rng = SplitMix64::new(seed);
            (0..8).map(|a| backoff_delay(&cfg, a, &mut rng)).collect()
        };
        assert_eq!(series(7), series(7), "same seed, same schedule");
        assert_ne!(series(7), series(8), "different seeds diverge");
        for d in series(7) {
            assert!(d >= Duration::from_millis(2), "equal jitter keeps a floor");
            assert!(d <= Duration::from_millis(40), "cap respected: {d:?}");
        }
    }

    /// A fast-retry config so the classification tests measure attempts,
    /// not wall-clock.
    fn retry_cfg() -> ClientConfig {
        ClientConfig {
            connect_attempts: 6,
            refused_attempts: 2,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(2),
            ..ClientConfig::default()
        }
    }

    #[test]
    fn connection_refused_fails_after_refused_attempts() {
        let cfg = retry_cfg();
        let mut rng = SplitMix64::new(3);
        let (result, attempts) = connect_loop::<()>(&cfg, &mut rng, || {
            Err(io::Error::new(io::ErrorKind::ConnectionRefused, "refused"))
        });
        let err = result.unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused);
        assert_eq!(
            attempts, 2,
            "a dead daemon must not burn the full backoff schedule"
        );
    }

    #[test]
    fn transient_errors_get_the_full_schedule() {
        let cfg = retry_cfg();
        let mut rng = SplitMix64::new(4);
        let (result, attempts) = connect_loop::<()>(&cfg, &mut rng, || {
            Err(io::Error::new(io::ErrorKind::TimedOut, "timeout"))
        });
        assert_eq!(result.unwrap_err().kind(), io::ErrorKind::TimedOut);
        assert_eq!(attempts, 6, "transient failures retry the full schedule");
    }

    #[test]
    fn transient_then_success_connects() {
        let cfg = retry_cfg();
        let mut rng = SplitMix64::new(5);
        let mut calls = 0u32;
        let (result, attempts) = connect_loop(&cfg, &mut rng, || {
            calls += 1;
            if calls < 4 {
                Err(io::Error::new(io::ErrorKind::TimedOut, "timeout"))
            } else {
                Ok(calls)
            }
        });
        assert_eq!(result.unwrap(), 4);
        assert_eq!(attempts, 4);
    }

    #[test]
    fn one_refusal_below_the_limit_still_recovers() {
        // One refusal (below refused_attempts = 2) sprinkled among
        // transient errors must not abort the schedule.
        let cfg = retry_cfg();
        let mut rng = SplitMix64::new(6);
        let mut calls = 0u32;
        let (result, attempts) = connect_loop(&cfg, &mut rng, || {
            calls += 1;
            match calls {
                1 => Err(io::Error::new(io::ErrorKind::TimedOut, "timeout")),
                2 => Err(io::Error::new(io::ErrorKind::ConnectionRefused, "refused")),
                _ => Ok(calls),
            }
        });
        assert_eq!(result.unwrap(), 3);
        assert_eq!(attempts, 3);
    }
}
