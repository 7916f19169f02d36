//! Cluster-aware client: write-to-primary with `NotPrimary` redirect
//! following, reads round-robined across every endpoint.
//!
//! A replicated deployment gives a client two new jobs the single-node
//! [`ResilientClient`](crate::ResilientClient) never had:
//!
//! * **Writes must find the primary.** Any replica answers a write with
//!   `NotPrimary { hint }`; the hint names the upstream the replica is
//!   following. During failover the hint may point at a corpse — the
//!   client treats a dead endpoint like any other failed attempt and
//!   rotates to the next known node, so it converges on the promoted
//!   replica as soon as promotion lands, without any out-of-band
//!   coordination. Only a write whose verb may be replayed goes on to
//!   the next node after its answer was lost; a lost INCR fails the call.
//! * **Reads may go anywhere.** Replicas serve GET/SCAN/STATS from
//!   their version-checked copy, so reads round-robin across the whole
//!   endpoint set and keep succeeding while the primary is down — that
//!   availability is the half of the replication story the failover
//!   soak asserts on.
//!
//! Endpoints learned from redirect hints are added to the set on the
//! fly; per-endpoint connections are lazy and survive across calls.

use std::io;
use std::time::Duration;

use gocc_telemetry::SplitMix64;
use gocc_wire::{decode_response, encode_response, Request, Response};

use crate::resilient::{is_lost, ClientConfig, ResilientClient};

/// Total write attempts (across redirects, rotations and replays) before
/// a write call reports failure to the caller.
const WRITE_ATTEMPTS: u32 = 12;

/// Full round-robin passes a session read makes before concluding no
/// endpoint can satisfy its version floor (replication lag longer than
/// the retry budget, or an impossible floor).
const READ_ROUNDS: usize = 3;

/// A read-your-writes session: the version tokens returned by this
/// session's acknowledged `SET_S` writes, keyed by the written key.
///
/// A token is the `(shard, version)` the write reached on the primary.
/// A later `GET_S` of the same key carries the version as its floor; a
/// replica whose copy of that key's shard is still behind the floor
/// answers `Behind` instead of serving a stale value, and the client
/// rotates to a caught-up node. Keying by the written key (rather than
/// by shard) is what lets the client stay ignorant of the server's
/// key→shard mapping: the same key always lands on the same shard, so
/// floor and check line up by construction.
#[derive(Clone, Debug, Default)]
pub struct Session {
    tokens: std::collections::HashMap<Vec<u8>, (u32, u64)>,
}

impl Session {
    /// An empty session: no floors, reads behave like plain reads.
    #[must_use]
    pub fn new() -> Self {
        Session::default()
    }

    /// Records an acknowledged write's token; floors only ever rise.
    pub fn note(&mut self, key: &[u8], shard: u32, version: u64) {
        let slot = self.tokens.entry(key.to_vec()).or_insert((shard, 0));
        if version > slot.1 {
            *slot = (shard, version);
        }
    }

    /// The session's version floor for `key` (0 when the session never
    /// wrote it — any copy is then fresh enough).
    #[must_use]
    pub fn floor(&self, key: &[u8]) -> u64 {
        self.tokens.get(key).map_or(0, |&(_, v)| v)
    }
}

struct Endpoint {
    port: u16,
    client: ResilientClient,
    /// Reads this endpoint served (the distribution proof for the
    /// read-scaling bench and the failover soak).
    reads: u64,
}

/// A client for a primary/replica group on loopback.
pub struct ClusterClient {
    cfg: ClientConfig,
    seed: u64,
    endpoints: Vec<Endpoint>,
    /// Index of the endpoint currently believed to be the primary.
    primary: usize,
    /// Read round-robin cursor.
    rr: usize,
    rng: SplitMix64,
    redirects: u64,
    rotations: u64,
    /// `Behind` answers session reads rotated past (replica lag made
    /// visible — the price and the proof of read-your-writes).
    behind_rotations: u64,
    /// The last answer returned, as a frame (see [`keep`]).
    answer: Vec<u8>,
}

impl ClusterClient {
    /// A client over `ports` (any mix of primary and replicas — the
    /// first write discovers which is which); `seed` drives backoff
    /// jitter and retry pacing.
    #[must_use]
    pub fn new(ports: &[u16], cfg: ClientConfig, seed: u64) -> Self {
        assert!(!ports.is_empty(), "a cluster needs at least one endpoint");
        let mut cluster = ClusterClient {
            cfg,
            seed,
            endpoints: Vec::new(),
            primary: 0,
            rr: 0,
            rng: SplitMix64::new(seed ^ 0xC1_05_7E_12),
            redirects: 0,
            rotations: 0,
            behind_rotations: 0,
            answer: Vec::new(),
        };
        for &port in ports {
            cluster.index_of(port);
        }
        cluster
    }

    /// The port currently believed to host the primary.
    #[must_use]
    pub fn primary_port(&self) -> u16 {
        self.endpoints[self.primary].port
    }

    /// `NotPrimary` hints followed.
    #[must_use]
    pub fn redirects(&self) -> u64 {
        self.redirects
    }

    /// Blind rotations to the next endpoint after an I/O failure or an
    /// unusable hint (dead-primary windows during failover).
    #[must_use]
    pub fn rotations(&self) -> u64 {
        self.rotations
    }

    /// `Behind` answers session reads rotated past.
    #[must_use]
    pub fn behind_rotations(&self) -> u64 {
        self.behind_rotations
    }

    /// Reads served per endpoint, in endpoint order (ports alongside).
    #[must_use]
    pub fn reads_by_endpoint(&self) -> Vec<(u16, u64)> {
        self.endpoints.iter().map(|e| (e.port, e.reads)).collect()
    }

    fn index_of(&mut self, port: u16) -> usize {
        if let Some(i) = self.endpoints.iter().position(|e| e.port == port) {
            return i;
        }
        // A node we did not know about (a hint named it): adopt it.
        let i = self.endpoints.len();
        self.endpoints.push(Endpoint {
            port,
            client: ResilientClient::new(
                port,
                self.cfg.clone(),
                self.seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ),
            reads: 0,
        });
        i
    }

    /// Sends a write to the believed primary, following `NotPrimary`
    /// hints and rotating past dead endpoints, up to a bounded number of
    /// attempts. On `Ok` the answer came from a node that accepted the
    /// write (it may still be a server `Error`, e.g. a fenced primary —
    /// the caller decides what that means).
    ///
    /// A write whose verb must not be replayed (INCR) and whose answer was
    /// lost is never sent to another endpoint: it fails at once with an
    /// error [`is_lost`] recognises, since it may already have applied.
    pub fn write(&mut self, req: &Request<'_>) -> io::Result<Response<'_>> {
        let mut last: Option<io::Error> = None;
        for attempt in 0..WRITE_ATTEMPTS {
            if attempt > 0 {
                // Failover windows are tens of milliseconds; pace the
                // retry loop instead of hammering corpses.
                std::thread::sleep(Duration::from_millis(1 + self.rng.below(4)));
            }
            let i = self.primary;
            let redirect = match self.endpoints[i].client.call(req) {
                Ok(Response::NotPrimary { hint }) => {
                    hint.rsplit(':').next().and_then(|p| p.parse::<u16>().ok())
                }
                Ok(resp) => {
                    keep(&mut self.answer, &resp);
                    return Ok(self.kept());
                }
                Err(e) if is_lost(&e) => return Err(e),
                Err(e) => {
                    last = Some(e);
                    None
                }
            };
            match redirect {
                Some(port) if port != self.endpoints[i].port => {
                    self.primary = self.index_of(port);
                    self.redirects += 1;
                }
                _ => {
                    // A dead endpoint, or an empty, unparsable or
                    // self-referential hint: the node knows no better
                    // primary. Rotate.
                    self.primary = (i + 1) % self.endpoints.len();
                    self.rotations += 1;
                }
            }
        }
        Err(last.unwrap_or_else(|| {
            io::Error::new(
                io::ErrorKind::TimedOut,
                "no endpoint accepted the write (redirect loop)",
            )
        }))
    }

    /// Sends a read to the next endpoint in round-robin order, trying
    /// every endpoint once before giving up. Replicas and primaries both
    /// serve reads, so this succeeds as long as *any* node is alive.
    pub fn read(&mut self, req: &Request<'_>) -> io::Result<Response<'_>> {
        self.read_rounds(req, 1)
    }

    /// A session write: `SET_S` through the primary-finding write path,
    /// recording the returned `(shard, version)` token in `session` so
    /// later session reads of the same key carry the floor.
    ///
    /// `Ok` with a non-`DoneAt` answer (a fenced primary's `Error`, say)
    /// records nothing; the caller inspects it exactly as with
    /// [`ClusterClient::write`].
    pub fn write_session(
        &mut self,
        session: &mut Session,
        key: &[u8],
        value: u64,
        ttl: u64,
    ) -> io::Result<Response<'_>> {
        let resp = self.write(&Request::SetS { key, value, ttl })?;
        if let Response::DoneAt { shard, version } = resp {
            session.note(key, shard, version);
        }
        Ok(resp)
    }

    /// A session read: `GET_S` carrying the session's floor for `key`,
    /// round-robined like [`ClusterClient::read`] but treating `Behind`
    /// (a replica that has not yet applied the session's write) as one
    /// more reason to rotate. Bounded at [`READ_ROUNDS`] full passes:
    /// the primary always satisfies floors it acknowledged, so under any
    /// live cluster this converges long before the budget runs out.
    pub fn read_session(&mut self, session: &Session, key: &[u8]) -> io::Result<Response<'_>> {
        let req = Request::GetS {
            key,
            min_version: session.floor(key),
        };
        self.read_rounds(&req, READ_ROUNDS)
    }

    /// Round-robins `req` over every endpoint for `rounds` full passes,
    /// rotating past dead endpoints and `Behind` answers, pausing between
    /// passes.
    fn read_rounds(&mut self, req: &Request<'_>, rounds: usize) -> io::Result<Response<'_>> {
        let n = self.endpoints.len();
        let mut last: Option<io::Error> = None;
        for attempt in 0..n * rounds {
            if attempt > 0 && attempt % n == 0 {
                // A full pass of Behind/dead answers: give replication
                // a beat to catch up instead of spinning.
                std::thread::sleep(Duration::from_millis(1 + self.rng.below(4)));
            }
            let i = self.rr % n;
            self.rr = self.rr.wrapping_add(1);
            match self.endpoints[i].client.call(req) {
                Ok(Response::Behind { .. }) => self.behind_rotations += 1,
                Ok(resp) => {
                    keep(&mut self.answer, &resp);
                    self.endpoints[i].reads += 1;
                    return Ok(self.kept());
                }
                Err(e) => last = Some(e),
            }
        }
        Err(last.unwrap_or_else(|| {
            io::Error::new(
                io::ErrorKind::TimedOut,
                "no endpoint satisfied the session's version floor",
            )
        }))
    }

    /// The answer [`keep`] stored, decoded.
    fn kept(&self) -> Response<'_> {
        decode_response(&self.answer[4..]).expect("a re-encoded answer decodes")
    }
}

/// Stores `resp` as a frame in `answer`, so it outlives the endpoint call
/// that produced it.
fn keep(answer: &mut Vec<u8>, resp: &Response<'_>) {
    answer.clear();
    encode_response(resp, answer);
}

#[cfg(test)]
mod tests {
    use super::*;
    use gocc_wire::decode_request_any;
    use std::io::{Read as _, Write as _};
    use std::net::{Ipv4Addr, TcpListener};

    /// A server answering every request on its one connection with
    /// `resp`. The client sends one frame and waits for its answer, so
    /// each read is one request.
    fn answering_server(resp: &Response<'_>) -> (u16, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        let port = listener.local_addr().unwrap().port();
        let mut frame = Vec::new();
        keep(&mut frame, resp);
        let handle = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut buf = [0u8; 256];
            while matches!(s.read(&mut buf), Ok(n) if n > 0) {
                s.write_all(&frame).unwrap();
            }
        });
        (port, handle)
    }

    #[test]
    fn writes_follow_the_redirect_hint() {
        let (primary_port, primary) = answering_server(&Response::Done);
        let hint = format!("127.0.0.1:{primary_port}");
        let (replica_port, replica) = answering_server(&Response::NotPrimary { hint: &hint });
        // The client starts believing the replica is the primary.
        let mut c = ClusterClient::new(&[replica_port], ClientConfig::chaos(), 7);
        let resp = c.write(&Request::Set {
            key: b"k",
            value: 1,
            ttl: 0,
        });
        assert_eq!(
            resp.expect("redirect must land on the real primary"),
            Response::Done
        );
        assert_eq!(c.redirects(), 1);
        assert_eq!(c.primary_port(), primary_port, "hint endpoint adopted");
        drop(c); // close the client connections so the server loops exit
        primary.join().unwrap();
        replica.join().unwrap();
    }

    #[test]
    fn writes_rotate_past_a_dead_primary() {
        // Endpoint 0 is a corpse (bound then dropped); endpoint 1 answers.
        let dead = TcpListener::bind((Ipv4Addr::LOCALHOST, 0))
            .unwrap()
            .local_addr()
            .unwrap()
            .port();
        let (live, server) = answering_server(&Response::Done);
        let mut c = ClusterClient::new(&[dead, live], ClientConfig::chaos(), 8);
        let resp = c.write(&Request::Set {
            key: b"k",
            value: 2,
            ttl: 0,
        });
        assert_eq!(
            resp.expect("rotation must find the live node"),
            Response::Done
        );
        assert!(c.rotations() >= 1, "the corpse cost at least one rotation");
        assert_eq!(c.primary_port(), live);
        drop(c);
        server.join().unwrap();
    }

    #[test]
    fn a_lost_incr_is_not_sent_to_the_next_endpoint() {
        // Endpoint A reads one INCR frame and hangs up, listener and all:
        // the increment may have applied. Endpoint B must never be asked.
        let a = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        let a_port = a.local_addr().unwrap().port();
        let a_side = std::thread::spawn(move || {
            let (mut s, _) = a.accept().unwrap();
            let mut buf = [0u8; 256];
            let n = s.read(&mut buf).unwrap();
            let frame = decode_request_any(&buf[4..n]).expect("one whole frame");
            assert!(matches!(frame.req, Request::Incr { .. }), "{frame:?}");
        });
        let b = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        b.set_nonblocking(true).unwrap();
        let b_port = b.local_addr().unwrap().port();

        let mut c = ClusterClient::new(&[a_port, b_port], ClientConfig::chaos(), 14);
        let err = c
            .write(&Request::Incr {
                key: b"ctr",
                delta: 1,
            })
            .expect_err("the INCR's fate is unknown");
        assert!(is_lost(&err), "the loss must be reported as such: {err}");
        a_side.join().unwrap();
        assert_eq!(
            b.accept().map(|_| ()).unwrap_err().kind(),
            io::ErrorKind::WouldBlock,
            "endpoint B was sent the lost INCR"
        );
        assert_eq!(c.primary_port(), a_port, "no rotation after the loss");
    }

    #[test]
    fn reads_round_robin_across_endpoints() {
        let (a, sa) = answering_server(&Response::Value {
            found: true,
            value: 1,
        });
        let (b, sb) = answering_server(&Response::Value {
            found: true,
            value: 2,
        });
        let mut c = ClusterClient::new(&[a, b], ClientConfig::chaos(), 9);
        for _ in 0..6 {
            c.read(&Request::Get { key: b"k" }).unwrap();
        }
        let reads = c.reads_by_endpoint();
        assert_eq!(reads.len(), 2);
        assert_eq!(reads[0].1, 3, "round-robin splits evenly");
        assert_eq!(reads[1].1, 3);
        drop(c);
        sa.join().unwrap();
        sb.join().unwrap();
    }

    #[test]
    fn writes_fail_boundedly_when_every_endpoint_is_dead() {
        // Both endpoints are corpses: bound a port, then drop the
        // listener so connects are refused. The write must rotate a
        // bounded number of times and report failure — not spin forever
        // against a cluster that will never answer.
        let dead = |seed: u16| {
            TcpListener::bind((Ipv4Addr::LOCALHOST, 0))
                .map(|l| l.local_addr().unwrap().port())
                .unwrap_or(seed)
        };
        let (a, b) = (dead(1), dead(2));
        let mut c = ClusterClient::new(&[a, b], ClientConfig::chaos(), 11);
        let err = c
            .write(&Request::Set {
                key: b"k",
                value: 3,
                ttl: 0,
            })
            .expect_err("a fully dead cluster must surface an error");
        assert_ne!(err.kind(), std::io::ErrorKind::Other, "a real I/O error");
        assert!(
            c.rotations() <= u64::from(super::WRITE_ATTEMPTS),
            "rotation is bounded by the attempt budget, got {}",
            c.rotations()
        );
    }

    #[test]
    fn epoch_change_redirects_the_session_write_and_records_the_token() {
        // After an election the deposed address answers NotPrimary with
        // the winner's port (the announce repointed it); the winner
        // answers DoneAt. The client must follow the redirect and pocket
        // the session token from the node that actually took the write.
        let (new_primary_port, new_primary) = answering_server(&Response::DoneAt {
            shard: 3,
            version: 17,
        });
        let hint = format!("127.0.0.1:{new_primary_port}");
        let (old_port, old_primary) = answering_server(&Response::NotPrimary { hint: &hint });
        let mut c = ClusterClient::new(&[old_port], ClientConfig::chaos(), 12);
        let mut session = Session::new();
        c.write_session(&mut session, b"k", 9, 0)
            .expect("the redirect must land on the new primary");
        assert_eq!(c.redirects(), 1);
        assert_eq!(c.primary_port(), new_primary_port);
        assert_eq!(session.floor(b"k"), 17, "token from the acking node");
        drop(c);
        new_primary.join().unwrap();
        old_primary.join().unwrap();
    }

    #[test]
    fn session_reads_rotate_past_behind_replicas() {
        // Endpoint A is a lagging replica: every session read answers
        // Behind. Endpoint B is caught up. The session read must rotate
        // off A and return B's value, counting the Behind rotation.
        let (lagging, sa) = answering_server(&Response::Behind { version: 2 });
        let (caught_up, sb) = answering_server(&Response::Value {
            found: true,
            value: 42,
        });
        let mut c = ClusterClient::new(&[lagging, caught_up], ClientConfig::chaos(), 13);
        let mut session = Session::new();
        session.note(b"k", 0, 5);
        // Several reads: whichever endpoint round-robin starts on, every
        // read must end at the caught-up node.
        for _ in 0..4 {
            assert_eq!(
                c.read_session(&session, b"k").unwrap(),
                Response::Value {
                    found: true,
                    value: 42
                }
            );
        }
        assert!(
            c.behind_rotations() >= 1,
            "the lagging replica must have been rotated past at least once"
        );
        drop(c);
        sa.join().unwrap();
        sb.join().unwrap();
    }
}
