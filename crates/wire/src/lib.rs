//! The `goccd` wire protocol: a hand-rolled length-prefixed binary frame
//! format for the cache service in `crates/server`.
//!
//! # Framing
//!
//! ```text
//! frame    := len:u32le body           (len = |body|, 1 ..= MAX_FRAME)
//! request  := MAGIC_V2 flags:u8 [deadline_us:u32le] opcode:u8 payload
//! response := opcode:u8 payload
//! ```
//!
//! Requests and responses share the framing; opcodes with the high bit set
//! are responses. The replication verbs are requests like any other
//! ([`Request::Repl`]). Payloads are fixed-layout little-endian fields;
//! keys are length-prefixed byte strings (the server hashes them with
//! `fnv1a` into its word-oriented store). Decoding is zero-copy-ish:
//! [`Request`] and [`Response`] borrow key/string payloads straight out of
//! the frame buffer, and encoding appends to a caller-owned `Vec<u8>` so
//! buffers are reused across frames.
//!
//! # The v2 envelope: deadline budgets
//!
//! Every request — data, control and replication — is wrapped in the v2
//! envelope: a [`MAGIC_V2`] byte, a flags byte, and — when flag bit 0 is
//! set — a client-supplied **deadline budget** in microseconds. The server
//! enforces the budget with cheap monotonic checks before and after the
//! storage call; an expired request is answered with
//! [`Response::DeadlineExceeded`] and is *never* executed against the
//! engine. Replication verbs are never admitted or timed, so their budget
//! is ignored. The bare protocol-v1 request body (opcode first, no
//! envelope) is gone: [`decode_request_any`] rejects it, and the server
//! answers it with one `Error` and closes the connection.
//!
//! # Clients
//!
//! [`Pipe`] is the one client: tickets in submission order, one response
//! shape check, and the rule for which verbs may be re-sent after a lost
//! connection ([`Request::replayable`]).
//!
//! # Robustness contract
//!
//! [`decode_request_any`] / [`decode_response`] never panic: any input
//! slice either decodes to a complete, well-formed message or returns a
//! [`WireError`]. Payloads must be *exact* — trailing bytes, out-of-range
//! lengths, non-boolean flag bytes and invalid UTF-8 are all errors, so a
//! corrupted frame cannot silently alias a valid one. The seeded
//! fuzz-style suites in `tests/` hold the decoder to this.

mod fault;
mod frame;
mod pipe;

pub use fault::FaultyStream;
pub use frame::{write_frame, FrameBuf};
pub use pipe::{Pipe, Ticket};

/// Hard ceiling on the body size of a single frame (1 MiB).
pub const MAX_FRAME: usize = 1 << 20;

/// Hard ceiling on a key's length in bytes.
pub const MAX_KEY: usize = 1024;

/// Hard ceiling on the entry count a SCAN may request.
pub const MAX_SCAN: u32 = 4096;

/// Hard ceiling on the shard count a REPL_HELLO may announce.
pub const MAX_REPL_SHARDS: u32 = 4096;

/// Hard ceiling on the record count of one replication batch. Sized so a
/// full batch (25 bytes per record plus the envelope) stays under
/// [`MAX_FRAME`]; snapshot resyncs larger than this are chunked.
pub const MAX_REPL_BATCH: u32 = 32_768;

/// [`Response::ReplBatch`] flag: first chunk of a snapshot resync — the
/// replica clears its pending snapshot buffer before staging records.
pub const REPL_FLAG_RESET: u8 = 0x01;
/// [`Response::ReplBatch`] flag: last chunk of a snapshot resync — the
/// replica atomically replaces the shard with the staged records and
/// adopts `prev_version` as the shard version.
pub const REPL_FLAG_FIN: u8 = 0x02;
/// [`Response::ReplBatch`] flag: this batch is part of a snapshot resync
/// (set on every chunk, alongside RESET/FIN on the first/last).
pub const REPL_FLAG_SNAP: u8 = 0x04;

const REPL_FLAGS_ALL: u8 = REPL_FLAG_RESET | REPL_FLAG_FIN | REPL_FLAG_SNAP;

/// First body byte of every request envelope. Chosen outside the request
/// opcode space and the response space (high bit set), so a bare opcode
/// is never mistaken for an envelope.
pub const MAGIC_V2: u8 = 0xB2;

/// v2 flags bit: a `deadline_us:u32le` field follows the flags byte.
const V2_FLAG_DEADLINE: u8 = 0x01;

/// Why a frame or message failed to decode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before the message did.
    Truncated,
    /// A declared length exceeds its ceiling ([`MAX_FRAME`], [`MAX_KEY`]
    /// or [`MAX_SCAN`]).
    TooLarge,
    /// The opcode byte names no known message.
    UnknownOpcode(u8),
    /// Structurally invalid payload (trailing bytes, bad flag byte, …).
    Malformed(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated message"),
            WireError::TooLarge => write!(f, "declared length exceeds protocol limit"),
            WireError::UnknownOpcode(op) => write!(f, "unknown opcode 0x{op:02x}"),
            WireError::Malformed(what) => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// A client request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request<'a> {
    /// Look up a key.
    Get {
        /// Key bytes.
        key: &'a [u8],
    },
    /// Store `value` under `key`; `ttl` is in logical ticks, 0 = never
    /// expires.
    Set {
        /// Key bytes.
        key: &'a [u8],
        /// Value word.
        value: u64,
        /// Expiration in logical ticks (0 = none).
        ttl: u64,
    },
    /// Remove a key.
    Del {
        /// Key bytes.
        key: &'a [u8],
    },
    /// Add `delta` (wrapping) to the value under `key`, treating a missing
    /// key as 0; returns the new value.
    Incr {
        /// Key bytes.
        key: &'a [u8],
        /// Wrapping increment.
        delta: u64,
    },
    /// Return up to `limit` `(hashed_key, value)` pairs.
    Scan {
        /// Maximum entries to return (≤ [`MAX_SCAN`]).
        limit: u32,
    },
    /// Fetch the server's statistics/telemetry JSON document.
    Stats,
    /// Ask the server to shut down gracefully.
    Shutdown,
    /// Probe the server's overload state (always admitted, served without
    /// touching the engine — cheap enough to call from a health checker
    /// even while the server is shedding).
    Health,
    /// Drain up to `max` completed flight-recorder spans from the live
    /// daemon as a JSON document. Draining, not idempotent: a retry
    /// returns the *next* batch, so clients must not replay it.
    Trace {
        /// Maximum span count to return (0 = server default).
        max: u32,
    },
    /// Force a durability barrier: every write acknowledged before this
    /// request is fsynced to the write-ahead log before the reply.
    /// Answered with [`Response::Flushed`]; on a server running without a
    /// WAL the barrier is vacuous and `durable_lsn` is 0.
    Flush,
    /// Session write: exactly [`Request::Set`], but answered with
    /// [`Response::DoneAt`] carrying the `(shard, version)` the write
    /// committed at — the read-your-writes token a session read presents
    /// back via [`Request::GetS`].
    SetS {
        /// Key bytes.
        key: &'a [u8],
        /// Value word.
        value: u64,
        /// Expiration in logical ticks (0 = none).
        ttl: u64,
    },
    /// Session read: a GET that only answers from a store whose owning
    /// shard has reached `min_version`. A node that is behind answers
    /// [`Response::Behind`] so the client can retry elsewhere (or wait) —
    /// this is what makes read-your-writes hold across replicas.
    GetS {
        /// Key bytes.
        key: &'a [u8],
        /// Minimum shard version required to serve the read.
        min_version: u64,
    },
    /// A replication verb. The server hands it to the replication layer
    /// before counting and admission, so a brownout never sheds it.
    Repl(ReplRequest<'a>),
}

/// One replicated write record: the post-image the primary's durable
/// prefix committed, keyed by the store's hashed key word.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReplRecord {
    /// 0 = put (value + absolute expiration), 1 = delete, 2 = value-only
    /// put (expiration preserved — the INCR post-image).
    pub kind: u8,
    /// Hashed key word.
    pub key: u64,
    /// Value word (ignored for deletes).
    pub value: u64,
    /// Absolute expiration tick, 0 = none (ignored for kinds 1 and 2).
    pub exp: u64,
}

/// [`ReplRecord::kind`]: store `value` with expiration `exp`.
pub const REPL_KIND_PUT: u8 = 0;
/// [`ReplRecord::kind`]: remove the key.
pub const REPL_KIND_DEL: u8 = 1;
/// [`ReplRecord::kind`]: store `value`, preserving any existing
/// expiration (INCR post-image).
pub const REPL_KIND_PUTVAL: u8 = 2;

/// A replication verb (replica → primary on a replication stream, node →
/// node in an election, or operator → node for promotion), carried as
/// [`Request::Repl`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReplRequest<'a> {
    /// Opens a replication stream: the replica announces its per-shard
    /// versions so the primary can stream exactly the missing suffix (or
    /// trigger a snapshot resync per shard).
    Hello {
        /// Current version (applied sequence number) of each shard.
        versions: Vec<u64>,
    },
    /// Acknowledges (or rejects) a batch. `nak` set means the replica's
    /// shard version did not match `prev_version` — the OCC conflict on
    /// the wire — and the primary must resync that shard from a snapshot.
    Ack {
        /// Shard index.
        shard: u32,
        /// The replica's shard version after (ack) or at (nak) the batch.
        version: u64,
        /// True when the batch was rejected for a version gap.
        nak: bool,
    },
    /// Changes a node's replication role. An empty `upstream` promotes
    /// the node to primary; a non-empty `upstream` (`host:port` UTF-8)
    /// re-points a replica at a new primary.
    Promote {
        /// New upstream address, empty to become primary.
        upstream: &'a [u8],
    },
    /// Election: a replica that suspects the primary is dead asks a peer
    /// for its vote in `epoch`, presenting its per-shard versions so the
    /// voter can refuse candidates with less history than its own.
    /// Answered with [`Response::ReplVote`].
    Candidate {
        /// The election epoch the candidate is running in (one greater
        /// than the highest epoch it has seen).
        epoch: u64,
        /// The candidate's per-shard versions (its replicated history).
        versions: Vec<u64>,
    },
    /// Election result: the winner announces the new epoch and its own
    /// address. Replicas adopt the epoch and repoint their upstream;
    /// anything claiming an older epoch is fenced from then on.
    EpochAnnounce {
        /// The epoch the announcing node won.
        epoch: u64,
        /// The new primary's address (`host:port` UTF-8).
        primary: &'a [u8],
    },
}

/// A decoded request plus its v2 envelope fields.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RequestFrame<'a> {
    /// The request itself.
    pub req: Request<'a>,
    /// Client-supplied deadline budget in microseconds, measured from
    /// server receipt; `None` when the envelope carries none.
    pub deadline_us: Option<u32>,
}

/// A server response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response<'a> {
    /// GET result.
    Value {
        /// Whether the key was present (and unexpired).
        found: bool,
        /// The value (0 when absent).
        value: u64,
    },
    /// SET acknowledged.
    Done,
    /// DEL result.
    Deleted {
        /// Whether the key existed.
        existed: bool,
    },
    /// INCR result: the post-increment value.
    Counter {
        /// New value.
        value: u64,
    },
    /// SCAN result: `(hashed_key, value)` pairs.
    Entries {
        /// The pairs, in table order.
        pairs: Vec<(u64, u64)>,
    },
    /// STATS result: a JSON document.
    Stats {
        /// The server's stats/telemetry JSON.
        json: &'a str,
    },
    /// SHUTDOWN acknowledged; the server will close the connection.
    Bye,
    /// HEALTH result: the brownout state plus overload counters.
    Health {
        /// Brownout state: 0 = Healthy, 1 = Degraded, 2 = Shedding.
        state: u8,
        /// Requests rejected by admission control over the server's life.
        shed_total: u64,
        /// Deadline misses (pre-execution rejections + post-execution
        /// overruns) over the server's life.
        deadline_misses: u64,
    },
    /// The request was rejected by admission control. Retriable: back off
    /// and retry; the connection stays fully usable.
    Overloaded {
        /// Brownout state at rejection time (same encoding as
        /// [`Response::Health`]).
        state: u8,
    },
    /// The request's deadline budget expired — either before execution
    /// (the request was not executed) or during it (the effect was
    /// applied but the client's budget is already blown). Retriable for
    /// idempotent verbs.
    DeadlineExceeded,
    /// TRACE result: a JSON document of drained spans plus ring counters.
    Trace {
        /// The span batch (`{"spans":[…],"pushed":…,"dropped":…}`).
        json: &'a str,
    },
    /// FLUSH result: the barrier completed.
    Flushed {
        /// Highest log sequence number known durable (0 without a WAL).
        durable_lsn: u64,
    },
    /// One replication batch (primary → replica). Applies only if the
    /// replica's shard version equals `prev_version`; the new version is
    /// `prev_version + records.len()`. Snapshot chunks set the
    /// `REPL_FLAG_*` bits and adopt `prev_version` wholesale at FIN.
    ReplBatch {
        /// Shard index.
        shard: u32,
        /// `REPL_FLAG_*` bits (0 for a normal incremental batch).
        flags: u8,
        /// The shard version this batch applies on top of (or, for a
        /// snapshot FIN chunk, the version the snapshot represents).
        prev_version: u64,
        /// The primary's logical clock for the shard, shipped so
        /// expirations mean the same thing on both sides. Only snapshot
        /// chunks carry it; incremental batches and heartbeats send 0.
        now: u64,
        /// The primary's election epoch. A replica that has seen a higher
        /// epoch rejects the batch outright — this is how a deposed
        /// primary's stale stream is fenced after a failover.
        epoch: u64,
        /// The committed post-images, in commit (version) order.
        records: Vec<ReplRecord>,
    },
    /// REPL_HELLO accepted: the stream is live.
    ReplWelcome {
        /// The primary's shard count (must match the replica's).
        shards: u32,
        /// The primary's election epoch; the replica adopts it if higher
        /// than its own, and hangs up if the primary's is stale.
        epoch: u64,
    },
    /// REPL_CANDIDATE result: the voter's decision for that epoch.
    ReplVote {
        /// Whether the vote was granted.
        granted: bool,
        /// The highest epoch the voter has seen or voted in (lets a stale
        /// candidate catch up before retrying).
        epoch: u64,
    },
    /// SET_S acknowledged: the write committed at this shard/version —
    /// the token a session read presents via [`Request::GetS`].
    DoneAt {
        /// Owning shard of the written key.
        shard: u32,
        /// The shard version the write committed at.
        version: u64,
    },
    /// GET_S refused: this node's shard has not yet reached the session's
    /// minimum version. Retriable — the client waits or tries another
    /// endpoint.
    Behind {
        /// The shard version this node has actually reached.
        version: u64,
    },
    /// A write verb reached a replica. Retriable against the primary;
    /// `hint` is the last known primary address (`host:port`), empty when
    /// unknown.
    NotPrimary {
        /// Redirect hint, possibly empty.
        hint: &'a str,
    },
    /// The request failed; the connection stays usable unless the error
    /// was a framing violation (the server closes it after sending this).
    Error {
        /// Human-readable cause.
        message: &'a str,
    },
}

// Request opcodes.
const OP_GET: u8 = 0x01;
const OP_SET: u8 = 0x02;
const OP_DEL: u8 = 0x03;
const OP_INCR: u8 = 0x04;
const OP_SCAN: u8 = 0x05;
const OP_STATS: u8 = 0x06;
const OP_SHUTDOWN: u8 = 0x07;
const OP_HEALTH: u8 = 0x08;
const OP_TRACE: u8 = 0x09;
const OP_FLUSH: u8 = 0x0A;
const OP_REPL_HELLO: u8 = 0x0B;
const OP_REPL_ACK: u8 = 0x0C;
const OP_REPL_PROMOTE: u8 = 0x0D;
const OP_REPL_CANDIDATE: u8 = 0x0E;
const OP_REPL_EPOCH: u8 = 0x0F;
const OP_SET_S: u8 = 0x10;
const OP_GET_S: u8 = 0x11;
// Response opcodes (high bit set).
const OP_VALUE: u8 = 0x81;
const OP_DONE: u8 = 0x82;
const OP_DELETED: u8 = 0x83;
const OP_COUNTER: u8 = 0x84;
const OP_ENTRIES: u8 = 0x85;
const OP_STATS_R: u8 = 0x86;
const OP_BYE: u8 = 0x87;
const OP_HEALTH_R: u8 = 0x88;
const OP_OVERLOADED: u8 = 0x89;
const OP_DEADLINE: u8 = 0x8A;
const OP_TRACE_R: u8 = 0x8B;
const OP_FLUSHED: u8 = 0x8C;
const OP_REPL_BATCH: u8 = 0x8D;
const OP_REPL_WELCOME: u8 = 0x8E;
const OP_NOT_PRIMARY: u8 = 0x8F;
const OP_REPL_VOTE: u8 = 0x90;
const OP_DONE_AT: u8 = 0x91;
const OP_BEHIND: u8 = 0x92;
const OP_ERROR: u8 = 0xFF;

/// Sequential reader over a payload slice; every accessor is
/// bounds-checked and returns [`WireError::Truncated`] past the end.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        let s = self.buf.get(self.pos..end).ok_or(WireError::Truncated)?;
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn key(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.u16()? as usize;
        if len > MAX_KEY {
            return Err(WireError::TooLarge);
        }
        self.take(len)
    }

    /// A replication verb's per-shard versions: a count, then the words.
    fn versions(&mut self) -> Result<Vec<u64>, WireError> {
        let count = self.u32()?;
        if count > MAX_REPL_SHARDS {
            return Err(WireError::TooLarge);
        }
        (0..count).map(|_| self.u64()).collect()
    }

    fn flag(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Malformed("flag byte not 0/1")),
        }
    }

    fn finish(&self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::Malformed("trailing bytes"))
        }
    }
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_key(out: &mut Vec<u8>, key: &[u8]) {
    assert!(key.len() <= MAX_KEY, "key exceeds MAX_KEY");
    put_u16(out, key.len() as u16);
    out.extend_from_slice(key);
}

fn put_versions(out: &mut Vec<u8>, versions: &[u64]) {
    assert!(
        versions.len() <= MAX_REPL_SHARDS as usize,
        "shard count exceeds MAX_REPL_SHARDS"
    );
    put_u32(out, versions.len() as u32);
    for &v in versions {
        put_u64(out, v);
    }
}

impl Request<'_> {
    fn opcode(&self) -> u8 {
        match self {
            Request::Get { .. } => OP_GET,
            Request::Set { .. } => OP_SET,
            Request::Del { .. } => OP_DEL,
            Request::Incr { .. } => OP_INCR,
            Request::Scan { .. } => OP_SCAN,
            Request::Stats => OP_STATS,
            Request::Shutdown => OP_SHUTDOWN,
            Request::Health => OP_HEALTH,
            Request::Trace { .. } => OP_TRACE,
            Request::Flush => OP_FLUSH,
            Request::SetS { .. } => OP_SET_S,
            Request::GetS { .. } => OP_GET_S,
            Request::Repl(ReplRequest::Hello { .. }) => OP_REPL_HELLO,
            Request::Repl(ReplRequest::Ack { .. }) => OP_REPL_ACK,
            Request::Repl(ReplRequest::Promote { .. }) => OP_REPL_PROMOTE,
            Request::Repl(ReplRequest::Candidate { .. }) => OP_REPL_CANDIDATE,
            Request::Repl(ReplRequest::EpochAnnounce { .. }) => OP_REPL_EPOCH,
        }
    }
}

/// Appends a complete request frame for `req` to `out`, its envelope
/// carrying `deadline_us` when given. The buffer is not cleared, so
/// requests can be batched.
pub fn encode_request_v2(req: &Request<'_>, deadline_us: Option<u32>, out: &mut Vec<u8>) {
    let header = out.len();
    put_u32(out, 0); // patched below
    out.push(MAGIC_V2);
    match deadline_us {
        Some(budget) => {
            out.push(V2_FLAG_DEADLINE);
            put_u32(out, budget);
        }
        None => out.push(0),
    }
    out.push(req.opcode());
    match req {
        Request::Get { key } | Request::Del { key } => put_key(out, key),
        Request::Set { key, value, ttl } | Request::SetS { key, value, ttl } => {
            put_key(out, key);
            put_u64(out, *value);
            put_u64(out, *ttl);
        }
        Request::Incr { key, delta: word }
        | Request::GetS {
            key,
            min_version: word,
        } => {
            put_key(out, key);
            put_u64(out, *word);
        }
        Request::Scan { limit: word } | Request::Trace { max: word } => put_u32(out, *word),
        Request::Stats | Request::Shutdown | Request::Health | Request::Flush => {}
        Request::Repl(ReplRequest::Hello { versions }) => put_versions(out, versions),
        Request::Repl(ReplRequest::Ack {
            shard,
            version,
            nak,
        }) => {
            put_u32(out, *shard);
            put_u64(out, *version);
            out.push(u8::from(*nak));
        }
        Request::Repl(ReplRequest::Promote { upstream }) => put_key(out, upstream),
        Request::Repl(ReplRequest::Candidate { epoch, versions }) => {
            put_u64(out, *epoch);
            put_versions(out, versions);
        }
        Request::Repl(ReplRequest::EpochAnnounce { epoch, primary }) => {
            put_u64(out, *epoch);
            put_key(out, primary);
        }
    }
    patch_len(out, header);
}

/// Appends a complete frame for `resp` to `out`.
pub fn encode_response(resp: &Response<'_>, out: &mut Vec<u8>) {
    let header = out.len();
    put_u32(out, 0);
    match resp {
        Response::Value { found, value } => {
            out.push(OP_VALUE);
            out.push(u8::from(*found));
            put_u64(out, *value);
        }
        Response::Done => out.push(OP_DONE),
        Response::Deleted { existed } => {
            out.push(OP_DELETED);
            out.push(u8::from(*existed));
        }
        Response::Counter { value } => {
            out.push(OP_COUNTER);
            put_u64(out, *value);
        }
        Response::Entries { pairs } => {
            assert!(
                pairs.len() <= MAX_SCAN as usize,
                "entry count exceeds MAX_SCAN"
            );
            out.push(OP_ENTRIES);
            put_u32(out, pairs.len() as u32);
            for &(k, v) in pairs {
                put_u64(out, k);
                put_u64(out, v);
            }
        }
        Response::Stats { json } => {
            out.push(OP_STATS_R);
            put_u32(out, json.len() as u32);
            out.extend_from_slice(json.as_bytes());
        }
        Response::Bye => out.push(OP_BYE),
        Response::Health {
            state,
            shed_total,
            deadline_misses,
        } => {
            out.push(OP_HEALTH_R);
            out.push(*state);
            put_u64(out, *shed_total);
            put_u64(out, *deadline_misses);
        }
        Response::Overloaded { state } => {
            out.push(OP_OVERLOADED);
            out.push(*state);
        }
        Response::DeadlineExceeded => out.push(OP_DEADLINE),
        Response::Trace { json } => {
            out.push(OP_TRACE_R);
            put_u32(out, json.len() as u32);
            out.extend_from_slice(json.as_bytes());
        }
        Response::Flushed { durable_lsn } => {
            out.push(OP_FLUSHED);
            put_u64(out, *durable_lsn);
        }
        Response::ReplBatch {
            shard,
            flags,
            prev_version,
            now,
            epoch,
            records,
        } => {
            assert!(
                records.len() <= MAX_REPL_BATCH as usize,
                "record count exceeds MAX_REPL_BATCH"
            );
            assert!(*flags & !REPL_FLAGS_ALL == 0, "undefined repl flag bits");
            out.push(OP_REPL_BATCH);
            put_u32(out, *shard);
            out.push(*flags);
            put_u64(out, *prev_version);
            put_u64(out, *now);
            put_u64(out, *epoch);
            put_u32(out, records.len() as u32);
            for r in records {
                out.push(r.kind);
                put_u64(out, r.key);
                put_u64(out, r.value);
                put_u64(out, r.exp);
            }
        }
        Response::ReplWelcome { shards, epoch } => {
            out.push(OP_REPL_WELCOME);
            put_u32(out, *shards);
            put_u64(out, *epoch);
        }
        Response::ReplVote { granted, epoch } => {
            out.push(OP_REPL_VOTE);
            out.push(u8::from(*granted));
            put_u64(out, *epoch);
        }
        Response::DoneAt { shard, version } => {
            out.push(OP_DONE_AT);
            put_u32(out, *shard);
            put_u64(out, *version);
        }
        Response::Behind { version } => {
            out.push(OP_BEHIND);
            put_u64(out, *version);
        }
        Response::NotPrimary { hint } => {
            out.push(OP_NOT_PRIMARY);
            let hint = &hint.as_bytes()[..hint.len().min(256)];
            put_u16(out, hint.len() as u16);
            out.extend_from_slice(hint);
        }
        Response::Error { message } => {
            out.push(OP_ERROR);
            let msg = &message.as_bytes()[..message.len().min(512)];
            put_u16(out, msg.len() as u16);
            out.extend_from_slice(msg);
        }
    }
    patch_len(out, header);
}

fn patch_len(out: &mut [u8], header: usize) {
    let body = out.len() - header - 4;
    assert!(body >= 1 && body <= MAX_FRAME, "frame body out of range");
    out[header..header + 4].copy_from_slice(&(body as u32).to_le_bytes());
}

/// Decodes a frame *body* (header already stripped) as a request in its
/// v2 envelope: [`MAGIC_V2`], flags, optional deadline budget, opcode,
/// payload. Never panics; a body without the envelope, unknown opcodes or
/// flag bits, truncation, limit violations and trailing bytes all yield
/// `Err`.
pub fn decode_request_any(body: &[u8]) -> Result<RequestFrame<'_>, WireError> {
    let mut c = Cursor::new(body);
    if c.u8()? != MAGIC_V2 {
        return Err(WireError::Malformed("no v2 envelope"));
    }
    let flags = c.u8()?;
    if flags & !V2_FLAG_DEADLINE != 0 {
        return Err(WireError::Malformed("unknown v2 flag bits"));
    }
    let deadline_us = if flags & V2_FLAG_DEADLINE != 0 {
        Some(c.u32()?)
    } else {
        None
    };
    let req = match c.u8()? {
        OP_GET => Request::Get { key: c.key()? },
        OP_SET => Request::Set {
            key: c.key()?,
            value: c.u64()?,
            ttl: c.u64()?,
        },
        OP_DEL => Request::Del { key: c.key()? },
        OP_INCR => Request::Incr {
            key: c.key()?,
            delta: c.u64()?,
        },
        OP_SCAN => {
            let limit = c.u32()?;
            if limit > MAX_SCAN {
                return Err(WireError::TooLarge);
            }
            Request::Scan { limit }
        }
        OP_STATS => Request::Stats,
        OP_SHUTDOWN => Request::Shutdown,
        OP_HEALTH => Request::Health,
        OP_TRACE => Request::Trace { max: c.u32()? },
        OP_FLUSH => Request::Flush,
        OP_SET_S => Request::SetS {
            key: c.key()?,
            value: c.u64()?,
            ttl: c.u64()?,
        },
        OP_GET_S => Request::GetS {
            key: c.key()?,
            min_version: c.u64()?,
        },
        OP_REPL_HELLO => Request::Repl(ReplRequest::Hello {
            versions: c.versions()?,
        }),
        OP_REPL_ACK => Request::Repl(ReplRequest::Ack {
            shard: c.u32()?,
            version: c.u64()?,
            nak: c.flag()?,
        }),
        OP_REPL_PROMOTE => Request::Repl(ReplRequest::Promote { upstream: c.key()? }),
        OP_REPL_CANDIDATE => Request::Repl(ReplRequest::Candidate {
            epoch: c.u64()?,
            versions: c.versions()?,
        }),
        OP_REPL_EPOCH => Request::Repl(ReplRequest::EpochAnnounce {
            epoch: c.u64()?,
            primary: c.key()?,
        }),
        op => return Err(WireError::UnknownOpcode(op)),
    };
    c.finish()?;
    Ok(RequestFrame { req, deadline_us })
}

/// Decodes a frame body as a response, with the same no-panic contract as
/// [`decode_request_any`].
pub fn decode_response(body: &[u8]) -> Result<Response<'_>, WireError> {
    let mut c = Cursor::new(body);
    let resp = match c.u8()? {
        OP_VALUE => Response::Value {
            found: c.flag()?,
            value: c.u64()?,
        },
        OP_DONE => Response::Done,
        OP_DELETED => Response::Deleted { existed: c.flag()? },
        OP_COUNTER => Response::Counter { value: c.u64()? },
        OP_ENTRIES => {
            let count = c.u32()?;
            if count > MAX_SCAN {
                return Err(WireError::TooLarge);
            }
            let mut pairs = Vec::with_capacity(count as usize);
            for _ in 0..count {
                pairs.push((c.u64()?, c.u64()?));
            }
            Response::Entries { pairs }
        }
        OP_STATS_R => {
            let len = c.u32()? as usize;
            if len > MAX_FRAME {
                return Err(WireError::TooLarge);
            }
            let bytes = c.take(len)?;
            let json =
                std::str::from_utf8(bytes).map_err(|_| WireError::Malformed("stats not UTF-8"))?;
            Response::Stats { json }
        }
        OP_BYE => Response::Bye,
        OP_HEALTH_R => Response::Health {
            state: c.u8()?,
            shed_total: c.u64()?,
            deadline_misses: c.u64()?,
        },
        OP_OVERLOADED => Response::Overloaded { state: c.u8()? },
        OP_DEADLINE => Response::DeadlineExceeded,
        OP_FLUSHED => Response::Flushed {
            durable_lsn: c.u64()?,
        },
        OP_REPL_BATCH => {
            let shard = c.u32()?;
            let flags = c.u8()?;
            if flags & !REPL_FLAGS_ALL != 0 {
                return Err(WireError::Malformed("undefined repl flag bits"));
            }
            let prev_version = c.u64()?;
            let now = c.u64()?;
            let epoch = c.u64()?;
            let count = c.u32()?;
            if count > MAX_REPL_BATCH {
                return Err(WireError::TooLarge);
            }
            let mut records = Vec::with_capacity(count as usize);
            for _ in 0..count {
                let kind = c.u8()?;
                if kind > REPL_KIND_PUTVAL {
                    return Err(WireError::Malformed("unknown repl record kind"));
                }
                records.push(ReplRecord {
                    kind,
                    key: c.u64()?,
                    value: c.u64()?,
                    exp: c.u64()?,
                });
            }
            Response::ReplBatch {
                shard,
                flags,
                prev_version,
                now,
                epoch,
                records,
            }
        }
        OP_REPL_WELCOME => Response::ReplWelcome {
            shards: c.u32()?,
            epoch: c.u64()?,
        },
        OP_REPL_VOTE => Response::ReplVote {
            granted: c.flag()?,
            epoch: c.u64()?,
        },
        OP_DONE_AT => Response::DoneAt {
            shard: c.u32()?,
            version: c.u64()?,
        },
        OP_BEHIND => Response::Behind { version: c.u64()? },
        OP_NOT_PRIMARY => {
            let len = c.u16()? as usize;
            let bytes = c.take(len)?;
            let hint =
                std::str::from_utf8(bytes).map_err(|_| WireError::Malformed("hint not UTF-8"))?;
            Response::NotPrimary { hint }
        }
        OP_TRACE_R => {
            let len = c.u32()? as usize;
            if len > MAX_FRAME {
                return Err(WireError::TooLarge);
            }
            let bytes = c.take(len)?;
            let json =
                std::str::from_utf8(bytes).map_err(|_| WireError::Malformed("trace not UTF-8"))?;
            Response::Trace { json }
        }
        OP_ERROR => {
            let len = c.u16()? as usize;
            let bytes = c.take(len)?;
            let message =
                std::str::from_utf8(bytes).map_err(|_| WireError::Malformed("error not UTF-8"))?;
            Response::Error { message }
        }
        op => return Err(WireError::UnknownOpcode(op)),
    };
    c.finish()?;
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `payload` behind an envelope without a deadline.
    fn enveloped(payload: &[u8]) -> Vec<u8> {
        let mut body = vec![MAGIC_V2, 0];
        body.extend_from_slice(payload);
        body
    }

    fn roundtrip_response(resp: Response<'_>) {
        let mut out = Vec::new();
        encode_response(&resp, &mut out);
        assert_eq!(decode_response(&out[4..]).unwrap(), resp);
    }

    fn roundtrip_v2(req: Request<'_>, deadline_us: Option<u32>) {
        let mut out = Vec::new();
        encode_request_v2(&req, deadline_us, &mut out);
        let body = &out[4..];
        assert_eq!(
            u32::from_le_bytes(out[..4].try_into().unwrap()) as usize,
            body.len()
        );
        assert_eq!(
            decode_request_any(body).unwrap(),
            RequestFrame { req, deadline_us }
        );
    }

    #[test]
    fn all_requests_roundtrip_in_their_envelope() {
        roundtrip_v2(Request::Get { key: b"alpha" }, Some(1_500));
        roundtrip_v2(
            Request::Set {
                key: b"",
                value: u64::MAX,
                ttl: 7,
            },
            Some(0),
        );
        roundtrip_v2(Request::Del { key: b"k" }, None);
        roundtrip_v2(
            Request::Incr {
                key: b"counter",
                delta: 3,
            },
            None,
        );
        roundtrip_v2(Request::Scan { limit: MAX_SCAN }, Some(u32::MAX));
        roundtrip_v2(Request::Stats, None);
        roundtrip_v2(Request::Shutdown, None);
        roundtrip_v2(Request::Health, None);
        roundtrip_v2(Request::Trace { max: 0 }, Some(10_000));
        roundtrip_v2(Request::Trace { max: u32::MAX }, None);
        roundtrip_v2(Request::Flush, Some(50_000));
        roundtrip_v2(
            Request::SetS {
                key: b"session",
                value: 17,
                ttl: 0,
            },
            None,
        );
        roundtrip_v2(
            Request::GetS {
                key: b"session",
                min_version: u64::MAX,
            },
            Some(1),
        );
        roundtrip_v2(
            Request::GetS {
                key: b"",
                min_version: 0,
            },
            None,
        );
        for (epoch, versions) in [(3, vec![0, 41, u64::MAX]), (u64::MAX, vec![])] {
            let hello = ReplRequest::Hello {
                versions: versions.clone(),
            };
            roundtrip_v2(Request::Repl(hello), Some(3));
            let candidate = ReplRequest::Candidate { epoch, versions };
            roundtrip_v2(Request::Repl(candidate), None);
        }
        for (version, nak) in [(99, false), (0, true)] {
            let ack = ReplRequest::Ack {
                shard: 3,
                version,
                nak,
            };
            roundtrip_v2(Request::Repl(ack), None);
        }
        for addr in [&b""[..], b"127.0.0.1:7070"] {
            roundtrip_v2(Request::Repl(ReplRequest::Promote { upstream: addr }), None);
            let announce = ReplRequest::EpochAnnounce {
                epoch: 7,
                primary: addr,
            };
            roundtrip_v2(Request::Repl(announce), Some(1));
        }
    }

    #[test]
    fn bare_v1_bodies_are_rejected() {
        // A bare PROMOTE (empty upstream) is the replication verbs' old
        // framing.
        let bare_promote = [OP_REPL_PROMOTE, 0, 0];
        for body in [
            &[OP_GET, 1, 0, b'k'][..],
            &[OP_STATS],
            &[OP_SHUTDOWN],
            &bare_promote,
        ] {
            assert_eq!(
                decode_request_any(body),
                Err(WireError::Malformed("no v2 envelope"))
            );
        }
        assert_eq!(decode_request_any(&[]), Err(WireError::Truncated));
    }

    #[test]
    fn v2_strictness() {
        // Unknown flag bits are malformed.
        let mut out = Vec::new();
        encode_request_v2(&Request::Stats, None, &mut out);
        let mut body = out[4..].to_vec();
        body[1] = 0x82; // flags with undefined bits
        assert!(matches!(
            decode_request_any(&body),
            Err(WireError::Malformed(_))
        ));
        // A declared deadline with truncated bytes is truncated.
        let body = [MAGIC_V2, 0x01, 0x10, 0x00];
        assert_eq!(decode_request_any(&body), Err(WireError::Truncated));
        // Trailing bytes after the inner payload are rejected.
        let mut out = Vec::new();
        encode_request_v2(&Request::Get { key: b"k" }, Some(9), &mut out);
        let mut body = out[4..].to_vec();
        body.push(0);
        assert_eq!(
            decode_request_any(&body),
            Err(WireError::Malformed("trailing bytes"))
        );
    }

    #[test]
    fn all_responses_roundtrip() {
        roundtrip_response(Response::Value {
            found: true,
            value: 42,
        });
        roundtrip_response(Response::Value {
            found: false,
            value: 0,
        });
        roundtrip_response(Response::Done);
        roundtrip_response(Response::Deleted { existed: true });
        roundtrip_response(Response::Counter { value: 9 });
        roundtrip_response(Response::Entries {
            pairs: vec![(1, 2), (u64::MAX, 0)],
        });
        roundtrip_response(Response::Entries { pairs: vec![] });
        roundtrip_response(Response::Stats {
            json: r#"{"ok":true}"#,
        });
        roundtrip_response(Response::Bye);
        roundtrip_response(Response::Health {
            state: 2,
            shed_total: 12_345,
            deadline_misses: 67,
        });
        roundtrip_response(Response::Overloaded { state: 1 });
        roundtrip_response(Response::DeadlineExceeded);
        roundtrip_response(Response::Trace {
            json: r#"{"spans":[],"pushed":0}"#,
        });
        roundtrip_response(Response::Flushed { durable_lsn: 0 });
        roundtrip_response(Response::Flushed {
            durable_lsn: u64::MAX,
        });
        roundtrip_response(Response::Error { message: "nope" });
    }

    #[test]
    fn trace_payloads_are_strict() {
        // A truncated max field is rejected.
        assert_eq!(
            decode_request_any(&enveloped(&[OP_TRACE, 0x01])),
            Err(WireError::Truncated)
        );
        // A trace response whose declared length overruns the payload.
        let mut body = vec![OP_TRACE_R];
        put_u32(&mut body, 100);
        body.extend_from_slice(b"{}");
        assert_eq!(decode_response(&body), Err(WireError::Truncated));
        // Non-UTF-8 span JSON is malformed.
        let mut body = vec![OP_TRACE_R];
        put_u32(&mut body, 2);
        body.extend_from_slice(&[0xFF, 0xFE]);
        assert!(matches!(
            decode_response(&body),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn flush_payloads_are_strict() {
        // FLUSH carries no payload; trailing bytes are rejected.
        assert_eq!(
            decode_request_any(&enveloped(&[OP_FLUSH, 0])),
            Err(WireError::Malformed("trailing bytes"))
        );
        // A truncated durable_lsn is truncated, not zero.
        let mut body = vec![OP_FLUSHED];
        body.extend_from_slice(&[1, 2, 3]);
        assert_eq!(decode_response(&body), Err(WireError::Truncated));
    }

    #[test]
    fn repl_responses_roundtrip() {
        roundtrip_response(Response::ReplBatch {
            shard: 2,
            flags: 0,
            prev_version: 41,
            now: 9,
            epoch: 5,
            records: vec![
                ReplRecord {
                    kind: REPL_KIND_PUT,
                    key: 0xDEAD,
                    value: 7,
                    exp: 12,
                },
                ReplRecord {
                    kind: REPL_KIND_DEL,
                    key: 0xBEEF,
                    value: 0,
                    exp: 0,
                },
                ReplRecord {
                    kind: REPL_KIND_PUTVAL,
                    key: 1,
                    value: u64::MAX,
                    exp: 0,
                },
            ],
        });
        roundtrip_response(Response::ReplBatch {
            shard: 0,
            flags: REPL_FLAG_SNAP | REPL_FLAG_RESET | REPL_FLAG_FIN,
            prev_version: 1000,
            now: 55,
            epoch: 0,
            records: vec![],
        });
        roundtrip_response(Response::ReplWelcome {
            shards: 16,
            epoch: 2,
        });
        roundtrip_response(Response::NotPrimary { hint: "" });
        roundtrip_response(Response::NotPrimary {
            hint: "127.0.0.1:9999",
        });
        roundtrip_response(Response::ReplVote {
            granted: true,
            epoch: 4,
        });
        roundtrip_response(Response::ReplVote {
            granted: false,
            epoch: u64::MAX,
        });
        roundtrip_response(Response::DoneAt {
            shard: 3,
            version: 77,
        });
        roundtrip_response(Response::Behind { version: u64::MAX });
    }

    #[test]
    fn repl_payloads_are_strict() {
        // HELLO shard count beyond the ceiling, with no bytes behind it.
        let mut body = enveloped(&[OP_REPL_HELLO]);
        put_u32(&mut body, MAX_REPL_SHARDS + 1);
        assert_eq!(decode_request_any(&body), Err(WireError::TooLarge));
        // HELLO declaring more versions than it carries.
        let mut body = enveloped(&[OP_REPL_HELLO]);
        put_u32(&mut body, 2);
        put_u64(&mut body, 1);
        assert_eq!(decode_request_any(&body), Err(WireError::Truncated));
        // ACK with a non-boolean nak byte.
        let mut body = enveloped(&[OP_REPL_ACK]);
        put_u32(&mut body, 0);
        put_u64(&mut body, 5);
        body.push(2);
        assert!(matches!(
            decode_request_any(&body),
            Err(WireError::Malformed(_))
        ));
        // Trailing bytes after a PROMOTE are rejected.
        let body = enveloped(&[OP_REPL_PROMOTE, 1, 0, b'x', 0]);
        assert_eq!(
            decode_request_any(&body),
            Err(WireError::Malformed("trailing bytes"))
        );
        // Batch with undefined flag bits.
        let mut body = vec![OP_REPL_BATCH];
        put_u32(&mut body, 0);
        body.push(0x80);
        put_u64(&mut body, 0);
        put_u64(&mut body, 0);
        put_u32(&mut body, 0);
        assert!(matches!(
            decode_response(&body),
            Err(WireError::Malformed(_))
        ));
        // Batch with an unknown record kind.
        let mut body = vec![OP_REPL_BATCH];
        put_u32(&mut body, 0);
        body.push(0);
        put_u64(&mut body, 0);
        put_u64(&mut body, 0);
        put_u64(&mut body, 0);
        put_u32(&mut body, 1);
        body.push(3);
        put_u64(&mut body, 1);
        put_u64(&mut body, 2);
        put_u64(&mut body, 3);
        assert!(matches!(
            decode_response(&body),
            Err(WireError::Malformed(_))
        ));
        // Batch whose declared count overruns the ceiling.
        let mut body = vec![OP_REPL_BATCH];
        put_u32(&mut body, 0);
        body.push(0);
        put_u64(&mut body, 0);
        put_u64(&mut body, 0);
        put_u64(&mut body, 0);
        put_u32(&mut body, MAX_REPL_BATCH + 1);
        assert_eq!(decode_response(&body), Err(WireError::TooLarge));
        // CANDIDATE shard count beyond the ceiling.
        let mut body = enveloped(&[OP_REPL_CANDIDATE]);
        put_u64(&mut body, 1);
        put_u32(&mut body, MAX_REPL_SHARDS + 1);
        assert_eq!(decode_request_any(&body), Err(WireError::TooLarge));
        // CANDIDATE declaring more versions than it carries.
        let mut body = enveloped(&[OP_REPL_CANDIDATE]);
        put_u64(&mut body, 1);
        put_u32(&mut body, 2);
        put_u64(&mut body, 9);
        assert_eq!(decode_request_any(&body), Err(WireError::Truncated));
        // VOTE with a non-boolean granted byte.
        let mut body = vec![OP_REPL_VOTE, 2];
        put_u64(&mut body, 1);
        assert!(matches!(
            decode_response(&body),
            Err(WireError::Malformed(_))
        ));
        // Trailing bytes after an EPOCH announce are rejected.
        let mut body = enveloped(&[OP_REPL_EPOCH]);
        put_u64(&mut body, 2);
        body.extend_from_slice(&[1, 0, b'x', 0]);
        assert_eq!(
            decode_request_any(&body),
            Err(WireError::Malformed("trailing bytes"))
        );
        // NotPrimary with non-UTF-8 hint bytes.
        let mut body = vec![OP_NOT_PRIMARY];
        put_u16(&mut body, 2);
        body.extend_from_slice(&[0xFF, 0xFE]);
        assert!(matches!(
            decode_response(&body),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn repl_batch_at_ceiling_fits_one_frame() {
        let records = vec![
            ReplRecord {
                kind: REPL_KIND_PUT,
                key: 1,
                value: 2,
                exp: 3,
            };
            MAX_REPL_BATCH as usize
        ];
        let resp = Response::ReplBatch {
            shard: 0,
            flags: 0,
            prev_version: 0,
            now: 0,
            epoch: u64::MAX,
            records,
        };
        let mut out = Vec::new();
        encode_response(&resp, &mut out);
        assert!(out.len() - 4 <= MAX_FRAME, "max batch must fit MAX_FRAME");
        assert_eq!(decode_response(&out[4..]).unwrap(), resp);
    }

    #[test]
    fn batched_frames_share_one_buffer() {
        let mut out = Vec::new();
        encode_request_v2(&Request::Get { key: b"a" }, None, &mut out);
        let first = out.len();
        encode_request_v2(&Request::Stats, Some(5), &mut out);
        assert_eq!(
            decode_request_any(&out[4..first]).unwrap().req,
            Request::Get { key: b"a" }
        );
        assert_eq!(
            decode_request_any(&out[first + 4..]).unwrap(),
            RequestFrame {
                req: Request::Stats,
                deadline_us: Some(5)
            }
        );
    }

    #[test]
    fn oversized_declarations_rejected() {
        // key_len beyond MAX_KEY with no actual bytes behind it.
        let mut body = enveloped(&[OP_GET]);
        put_u16(&mut body, (MAX_KEY + 1) as u16);
        assert_eq!(decode_request_any(&body), Err(WireError::TooLarge));
        let mut body = enveloped(&[OP_SCAN]);
        put_u32(&mut body, MAX_SCAN + 1);
        assert_eq!(decode_request_any(&body), Err(WireError::TooLarge));
    }

    #[test]
    fn flag_bytes_are_strict() {
        let mut body = vec![OP_VALUE, 2];
        put_u64(&mut body, 1);
        assert!(matches!(
            decode_response(&body),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn unknown_opcodes_rejected() {
        assert_eq!(
            decode_request_any(&enveloped(&[0x7E])),
            Err(WireError::UnknownOpcode(0x7E))
        );
        assert_eq!(
            decode_response(&[0x10]),
            Err(WireError::UnknownOpcode(0x10))
        );
    }
}
