//! Per-request flight recorder: bounded, lock-free span rings.
//!
//! The aggregate layers (site registry, histograms, [`crate::EventRing`])
//! answer "how often"; this module answers "what happened to *this*
//! request". A sampled request gets a nonzero trace id at frame decode;
//! every layer it passes through — admission, engine section, each HTM
//! attempt, perceptron decisions, the store op, the response write —
//! appends one fixed-size [`Span`] tagged with that id. Records go into a
//! sharded ring of atomics (same discipline as the event ring and PR 4's
//! `TxContext`: no allocation, no locks on the hot path) and are drained
//! either live over the wire (`TRACE` verb) or as a Chrome trace-event
//! dump at shutdown.
//!
//! Timestamps are monotonic nanoseconds from a process-wide epoch taken on
//! first use ([`now_ns`]). The TL2 version clock (`htm::clock`) is a
//! *logical* counter — useless for durations — so HTM attempt spans carry
//! its snapshot in the `b` payload instead, tying each attempt to the
//! ordering the commit protocol actually saw.
//!
//! Sampling is deterministic and seeded: a per-thread countdown fires on
//! the first request a thread sees and every N-th after (no shared
//! counter, no division on the per-request path), and the decision is made
//! once per request so a sampled request traces its entire attempt chain.
//! A process-global [`tracing_active`] gate — one relaxed load — keeps the
//! disabled path out of every hot loop.

use crate::{JsonWriter, ABORT_CAUSE_NAMES};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Shards (threads hash onto these).
const SHARDS: usize = 16;
/// Slots per shard ring. 16 × 512 spans ≈ 8K retained; at ~90 bytes of
/// JSON per span a full drain stays well under the 1 MiB wire frame cap.
const SLOTS: usize = 512;

/// Where in the request path a span was recorded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum SpanKind {
    /// Wire frame decode (server ingest).
    WireDecode = 0,
    /// Time between socket ingest and admission (queue wait).
    QueueWait = 1,
    /// Request rejected by overload protection; `a` = shed-cause index.
    Shed = 2,
    /// Engine critical-section entry to exit (whole elision envelope).
    Section = 3,
    /// One HTM attempt; `a` = outcome (0 = commit, 1+cause = abort per
    /// [`ABORT_CAUSE_NAMES`]), `b` = TL2 version-clock snapshot.
    HtmAttempt = 4,
    /// Perceptron activity; `a` = action index per
    /// [`PERCEPTRON_ACTION_NAMES`].
    Perceptron = 5,
    /// Store verb execution; `a` = verb opcode, `b` = the batched flag.
    /// Every single-key data verb (GET, SET, DEL, INCR, SET_S, GET_S) runs
    /// in a shard-group — a lone request is a group of one — so `b` is
    /// always 1 for them and the span covers the whole group's section
    /// (its [`SpanKind::BatchExec`] parent has the group size). Only SCAN,
    /// which runs outside the batch, records `b` = 0.
    StoreOp = 6,
    /// Response encode onto the outbound buffer.
    ResponseWrite = 7,
    /// Wait for the WAL group-commit barrier to cover a staged write;
    /// `a` = the awaited per-shard ticket.
    WalCommit = 8,
    /// Replica apply of one replication batch; `a` = shard,
    /// `b` = the batch's `prev_version` (so a NAKed gap is visible as a
    /// mismatch against the neighboring spans).
    ReplApply = 9,
    /// One shard-group executed through a single elided section;
    /// `a` = requests in the group, `b` = shard. Parents the group's
    /// per-request [`SpanKind::StoreOp`] spans.
    BatchExec = 10,
}

/// Names indexed by `SpanKind as u8`.
pub const SPAN_KIND_NAMES: [&str; 11] = [
    "wire_decode",
    "queue_wait",
    "shed",
    "section",
    "htm_attempt",
    "perceptron",
    "store_op",
    "response_write",
    "wal_commit",
    "repl_apply",
    "batch_exec",
];

/// Perceptron span `a`-payload values.
pub const PERCEPTRON_PREDICT_HTM: u64 = 0;
/// Predictor chose the slow path.
pub const PERCEPTRON_PREDICT_SLOW: u64 = 1;
/// Weights rewarded after a fast commit.
pub const PERCEPTRON_REWARD: u64 = 2;
/// Weights penalized after a slow section.
pub const PERCEPTRON_PENALIZE: u64 = 3;

/// Names indexed by the perceptron `a`-payload.
pub const PERCEPTRON_ACTION_NAMES: [&str; 4] =
    ["predict_htm", "predict_slow", "reward", "penalize"];

impl SpanKind {
    fn from_u8(v: u8) -> SpanKind {
        match v {
            1 => SpanKind::QueueWait,
            2 => SpanKind::Shed,
            3 => SpanKind::Section,
            4 => SpanKind::HtmAttempt,
            5 => SpanKind::Perceptron,
            6 => SpanKind::StoreOp,
            7 => SpanKind::ResponseWrite,
            8 => SpanKind::WalCommit,
            9 => SpanKind::ReplApply,
            10 => SpanKind::BatchExec,
            _ => SpanKind::WireDecode,
        }
    }

    /// The wire/JSON name of this kind.
    #[must_use]
    pub fn name(self) -> &'static str {
        SPAN_KIND_NAMES[self as usize]
    }
}

/// One fixed-size flight-recorder record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// The request's trace id (nonzero for sampled requests).
    pub trace_id: u64,
    /// What this span measured.
    pub kind: SpanKind,
    /// Start, monotonic nanoseconds since the process trace epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Kind-specific payload (outcome / cause / action / opcode).
    pub a: u64,
    /// Kind-specific payload (TL2 clock snapshot for HTM attempts).
    pub b: u64,
}

impl Span {
    /// Decoded payload name, for kinds whose `a` payload is an
    /// enumeration: the HTM attempt outcome or the perceptron action.
    #[must_use]
    pub fn detail(&self) -> Option<&'static str> {
        match self.kind {
            SpanKind::HtmAttempt => Some(if self.a == 0 {
                "commit"
            } else {
                ABORT_CAUSE_NAMES
                    .get((self.a - 1) as usize)
                    .copied()
                    .unwrap_or("unknown")
            }),
            SpanKind::Perceptron => Some(
                PERCEPTRON_ACTION_NAMES
                    .get(self.a as usize)
                    .copied()
                    .unwrap_or("unknown"),
            ),
            _ => None,
        }
    }
}

const VALID_BIT: u64 = 1 << 8;

#[derive(Debug)]
struct Slot {
    trace_id: AtomicU64,
    start_ns: AtomicU64,
    dur_ns: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
    /// Bits 0..8: kind; bit 8: valid.
    meta: AtomicU64,
}

#[derive(Debug)]
struct Shard {
    cursor: AtomicU64,
    slots: Box<[Slot]>,
}

/// Count of recorders with sampling enabled, process-wide. One relaxed
/// load of this gates every per-operation tracing check, so a process
/// with tracing off pays a single predictable branch.
static ACTIVE: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// The trace id of the request this thread is currently serving
    /// (0 = unsampled / no request). Valid because the server handles
    /// each request fully synchronously on one worker thread.
    static CURRENT: Cell<u64> = const { Cell::new(0) };
    /// Per-thread sampling countdown: (recorder tag, requests until the
    /// next sample). Tagged so a thread that moves between recorders
    /// (tests, multiple runtimes) restarts its countdown.
    static SAMPLER: Cell<(usize, u64)> = const { Cell::new((0, 0)) };
}

/// True when any recorder in the process has sampling enabled.
#[inline]
#[must_use]
pub fn tracing_active() -> bool {
    ACTIVE.load(Ordering::Relaxed) != 0
}

/// The calling thread's current trace id; 0 when tracing is globally off
/// or the current request is unsampled.
#[inline]
#[must_use]
pub fn current() -> u64 {
    if !tracing_active() {
        return 0;
    }
    CURRENT.with(Cell::get)
}

/// Marks the calling thread as serving the given trace id.
#[inline]
pub fn set_current(id: u64) {
    CURRENT.with(|c| c.set(id));
}

/// Clears the calling thread's trace id (request finished).
#[inline]
pub fn clear_current() {
    CURRENT.with(|c| c.set(0));
}

/// Monotonic nanoseconds since the process trace epoch (first call).
#[inline]
#[must_use]
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// SplitMix64 finalizer — enough mixing to make trace ids from a seed and
/// a sequence number look unrelated.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The flight recorder: a sharded bounded span ring plus the sampling
/// configuration. One lives on every `GoccRuntime`, always present;
/// sampling is off (`sample_n == 0`) until [`TraceRecorder::configure`].
#[derive(Debug)]
pub struct TraceRecorder {
    /// 0 = disabled; N = sample one request in N per thread.
    sample_n: AtomicU64,
    seed: AtomicU64,
    /// Sampled-request sequence (feeds trace-id generation only).
    seq: AtomicU64,
    /// Spans overwritten before any drain observed them.
    overwritten: AtomicU64,
    /// Spans handed out by [`TraceRecorder::take`].
    taken: AtomicU64,
    shards: Box<[Shard]>,
}

impl Default for TraceRecorder {
    fn default() -> Self {
        TraceRecorder::new()
    }
}

impl Drop for TraceRecorder {
    fn drop(&mut self) {
        if self.sample_n.load(Ordering::Relaxed) != 0 {
            ACTIVE.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

impl TraceRecorder {
    /// Creates a disabled recorder (16 shards × 512 slots).
    #[must_use]
    pub fn new() -> Self {
        TraceRecorder {
            sample_n: AtomicU64::new(0),
            seed: AtomicU64::new(0),
            seq: AtomicU64::new(0),
            overwritten: AtomicU64::new(0),
            taken: AtomicU64::new(0),
            shards: (0..SHARDS)
                .map(|_| Shard {
                    cursor: AtomicU64::new(0),
                    slots: (0..SLOTS)
                        .map(|_| Slot {
                            trace_id: AtomicU64::new(0),
                            start_ns: AtomicU64::new(0),
                            dur_ns: AtomicU64::new(0),
                            a: AtomicU64::new(0),
                            b: AtomicU64::new(0),
                            meta: AtomicU64::new(0),
                        })
                        .collect(),
                })
                .collect(),
        }
    }

    /// Sets the sampling rate (0 disables) and the trace-id seed, and
    /// keeps the process-wide [`tracing_active`] gate in sync.
    pub fn configure(&self, sample_n: u64, seed: u64) {
        self.seed.store(seed, Ordering::Relaxed);
        let was = self.sample_n.swap(sample_n, Ordering::Relaxed);
        if was == 0 && sample_n != 0 {
            ACTIVE.fetch_add(1, Ordering::Relaxed);
        } else if was != 0 && sample_n == 0 {
            ACTIVE.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// The configured sampling rate (0 = disabled).
    #[must_use]
    pub fn sample_n(&self) -> u64 {
        self.sample_n.load(Ordering::Relaxed)
    }

    /// Makes the once-per-request sampling decision. Returns the new
    /// trace id (nonzero) if this request is sampled, else 0. The first
    /// request each thread sees is sampled, then every N-th after — a
    /// countdown decrement, no shared counter, no division.
    #[inline]
    pub fn begin_request(&self) -> u64 {
        let n = self.sample_n.load(Ordering::Relaxed);
        if n == 0 {
            return 0;
        }
        let tag = std::ptr::from_ref(self) as usize;
        SAMPLER.with(|s| {
            let (seen, left) = s.get();
            let left = if seen == tag { left } else { 1 };
            if left <= 1 {
                s.set((tag, n));
                let seq = self.seq.fetch_add(1, Ordering::Relaxed);
                let id = mix64(self.seed.load(Ordering::Relaxed) ^ seq);
                if id == 0 {
                    1
                } else {
                    id
                }
            } else {
                s.set((tag, left - 1));
                0
            }
        })
    }

    fn shard(&self) -> &Shard {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        thread_local! {
            static SHARD: usize = NEXT.fetch_add(1, Ordering::Relaxed) % SHARDS;
        }
        &self.shards[SHARD.with(|s| *s)]
    }

    /// Appends a span to the calling thread's shard, overwriting the
    /// oldest once full. Relaxed atomics in claim order — a racing drain
    /// can observe a torn span, acceptable for a trace (counters, not the
    /// ring, are the source of exact numbers).
    pub fn push(&self, span: Span) {
        let shard = self.shard();
        let idx = shard.cursor.fetch_add(1, Ordering::Relaxed) as usize % SLOTS;
        let slot = &shard.slots[idx];
        if slot.meta.load(Ordering::Relaxed) & VALID_BIT != 0 {
            self.overwritten.fetch_add(1, Ordering::Relaxed);
        }
        slot.trace_id.store(span.trace_id, Ordering::Relaxed);
        slot.start_ns.store(span.start_ns, Ordering::Relaxed);
        slot.dur_ns.store(span.dur_ns, Ordering::Relaxed);
        slot.a.store(span.a, Ordering::Relaxed);
        slot.b.store(span.b, Ordering::Relaxed);
        slot.meta
            .store(u64::from(span.kind as u8) | VALID_BIT, Ordering::Relaxed);
    }

    /// Total spans ever pushed (including overwritten ones).
    #[must_use]
    pub fn pushed(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.cursor.load(Ordering::Relaxed))
            .sum()
    }

    /// Spans overwritten before any drain observed them.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.overwritten.load(Ordering::Relaxed)
    }

    /// Spans handed out by [`TraceRecorder::take`] so far.
    #[must_use]
    pub fn taken(&self) -> u64 {
        self.taken.load(Ordering::Relaxed)
    }

    /// Drains up to `max` completed spans, clearing them from the ring
    /// (the live `TRACE` verb — a second call returns the next batch).
    /// Returns the spans plus how many valid spans were left behind
    /// because of the cap.
    #[must_use]
    pub fn take(&self, max: usize) -> (Vec<Span>, u64) {
        let mut out = Vec::new();
        let mut left_behind = 0u64;
        for shard in self.shards.iter() {
            let cursor = shard.cursor.load(Ordering::Relaxed) as usize;
            let (start, len) = if cursor > SLOTS {
                (cursor % SLOTS, SLOTS)
            } else {
                (0, cursor.min(SLOTS))
            };
            for k in 0..len {
                let slot = &shard.slots[(start + k) % SLOTS];
                let meta = slot.meta.load(Ordering::Relaxed);
                if meta & VALID_BIT == 0 {
                    continue;
                }
                if out.len() >= max {
                    left_behind += 1;
                    continue;
                }
                slot.meta.store(0, Ordering::Relaxed);
                out.push(Span {
                    trace_id: slot.trace_id.load(Ordering::Relaxed),
                    kind: SpanKind::from_u8((meta & 0xFF) as u8),
                    start_ns: slot.start_ns.load(Ordering::Relaxed),
                    dur_ns: slot.dur_ns.load(Ordering::Relaxed),
                    a: slot.a.load(Ordering::Relaxed),
                    b: slot.b.load(Ordering::Relaxed),
                });
            }
        }
        self.taken.fetch_add(out.len() as u64, Ordering::Relaxed);
        (out, left_behind)
    }

    /// Copies out every retained span without clearing (shutdown dumps).
    #[must_use]
    pub fn drain(&self) -> Vec<Span> {
        let mut out = Vec::new();
        for shard in self.shards.iter() {
            let cursor = shard.cursor.load(Ordering::Relaxed) as usize;
            let (start, len) = if cursor > SLOTS {
                (cursor % SLOTS, SLOTS)
            } else {
                (0, cursor.min(SLOTS))
            };
            for k in 0..len {
                let slot = &shard.slots[(start + k) % SLOTS];
                let meta = slot.meta.load(Ordering::Relaxed);
                if meta & VALID_BIT == 0 {
                    continue;
                }
                out.push(Span {
                    trace_id: slot.trace_id.load(Ordering::Relaxed),
                    kind: SpanKind::from_u8((meta & 0xFF) as u8),
                    start_ns: slot.start_ns.load(Ordering::Relaxed),
                    dur_ns: slot.dur_ns.load(Ordering::Relaxed),
                    a: slot.a.load(Ordering::Relaxed),
                    b: slot.b.load(Ordering::Relaxed),
                });
            }
        }
        out
    }
}

fn write_span(w: &mut JsonWriter, s: &Span) {
    w.begin_object()
        .field_u64("trace_id", s.trace_id)
        .field_str("kind", s.kind.name())
        .field_u64("start_ns", s.start_ns)
        .field_u64("dur_ns", s.dur_ns);
    if let Some(detail) = s.detail() {
        let key = match s.kind {
            SpanKind::HtmAttempt => "outcome",
            _ => "action",
        };
        w.field_str(key, detail);
    }
    w.field_u64("a", s.a).field_u64("b", s.b).end_object();
}

/// Renders a drained batch as the `TRACE` verb's response document.
#[must_use]
pub fn spans_json(spans: &[Span], pushed: u64, dropped: u64, truncated: u64) -> String {
    let mut w = JsonWriter::new();
    w.begin_object().key("spans").begin_array();
    for s in spans {
        write_span(&mut w, s);
    }
    w.end_array()
        .field_u64("count", spans.len() as u64)
        .field_u64("pushed", pushed)
        .field_u64("dropped", dropped)
        .field_u64("truncated", truncated)
        .end_object();
    w.finish()
}

/// Renders spans as a Chrome trace-event / Perfetto-compatible document
/// (`chrome://tracing` "JSON object format": complete `"X"` events with
/// microsecond timestamps; each trace id maps to a synthetic tid so one
/// request reads as one track).
#[must_use]
pub fn chrome_trace_json(spans: &[Span]) -> String {
    let mut w = JsonWriter::new();
    w.begin_object().key("traceEvents").begin_array();
    for s in spans {
        w.begin_object()
            .field_str("name", s.kind.name())
            .field_str("cat", "gocc")
            .field_str("ph", "X")
            .field_f64("ts", s.start_ns as f64 / 1_000.0)
            .field_f64("dur", s.dur_ns as f64 / 1_000.0)
            .field_u64("pid", 1)
            .field_u64("tid", s.trace_id % 65_536)
            .key("args")
            .begin_object()
            .field_u64("trace_id", s.trace_id);
        if let Some(detail) = s.detail() {
            w.field_str("detail", detail);
        }
        w.field_u64("a", s.a)
            .field_u64("b", s.b)
            .end_object()
            .end_object();
    }
    w.end_array()
        .field_str("displayTimeUnit", "ns")
        .end_object();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::JsonValue;

    fn span(id: u64, kind: SpanKind, a: u64) -> Span {
        Span {
            trace_id: id,
            kind,
            start_ns: 100,
            dur_ns: 50,
            a,
            b: 7,
        }
    }

    #[test]
    fn sampling_is_deterministic_and_first_request_fires() {
        let rec = TraceRecorder::new();
        rec.configure(4, 0xDEAD_BEEF);
        let ids: Vec<u64> = (0..9).map(|_| rec.begin_request()).collect();
        // First request sampled, then every 4th.
        assert_ne!(ids[0], 0);
        assert_eq!(&ids[1..4], &[0, 0, 0]);
        assert_ne!(ids[4], 0);
        assert_eq!(&ids[5..8], &[0, 0, 0]);
        assert_ne!(ids[8], 0);
        assert_ne!(ids[0], ids[4], "distinct requests get distinct ids");

        // Same seed, fresh recorder, fresh thread: same id sequence.
        let replay = std::thread::spawn(|| {
            let rec = TraceRecorder::new();
            rec.configure(4, 0xDEAD_BEEF);
            (0..9).map(|_| rec.begin_request()).collect::<Vec<u64>>()
        })
        .join()
        .unwrap();
        assert_eq!(ids, replay);
        rec.configure(0, 0);
    }

    #[test]
    fn disabled_recorder_never_samples() {
        let rec = TraceRecorder::new();
        for _ in 0..100 {
            assert_eq!(rec.begin_request(), 0);
        }
    }

    #[test]
    fn configure_toggles_the_global_gate() {
        let rec = TraceRecorder::new();
        let before = ACTIVE.load(Ordering::Relaxed);
        rec.configure(8, 1);
        assert_eq!(ACTIVE.load(Ordering::Relaxed), before + 1);
        rec.configure(16, 1); // still enabled: no double count
        assert_eq!(ACTIVE.load(Ordering::Relaxed), before + 1);
        rec.configure(0, 0);
        assert_eq!(ACTIVE.load(Ordering::Relaxed), before);
        rec.configure(8, 1);
        drop(rec); // Drop releases the gate
        assert_eq!(ACTIVE.load(Ordering::Relaxed), before);
    }

    #[test]
    fn current_id_follows_set_and_clear() {
        let rec = TraceRecorder::new();
        rec.configure(1, 42);
        set_current(99);
        assert_eq!(current(), 99);
        clear_current();
        assert_eq!(current(), 0);
        rec.configure(0, 0);
    }

    #[test]
    fn ring_is_bounded_and_counts_overwrites() {
        let rec = TraceRecorder::new();
        for i in 0..(SLOTS as u64 * 3) {
            rec.push(span(i + 1, SpanKind::Section, 0));
        }
        assert_eq!(rec.pushed(), SLOTS as u64 * 3);
        // One thread uses one shard: 2×SLOTS overwrote live spans.
        assert_eq!(rec.dropped(), SLOTS as u64 * 2);
        let spans = rec.drain();
        assert_eq!(spans.len(), SLOTS);
        assert!(spans.iter().all(|s| s.trace_id > SLOTS as u64));
    }

    #[test]
    fn take_clears_and_honors_the_cap() {
        let rec = TraceRecorder::new();
        for i in 0..10u64 {
            rec.push(span(i + 1, SpanKind::HtmAttempt, 0));
        }
        let (first, left) = rec.take(6);
        assert_eq!(first.len(), 6);
        assert_eq!(left, 4);
        let (second, left) = rec.take(100);
        assert_eq!(second.len(), 4);
        assert_eq!(left, 0);
        assert_eq!(rec.taken(), 10);
        let (third, _) = rec.take(100);
        assert!(third.is_empty(), "take clears what it returns");
    }

    #[test]
    fn span_json_names_abort_causes_and_round_trips() {
        let spans = [
            span(5, SpanKind::HtmAttempt, 0),
            span(5, SpanKind::HtmAttempt, 1 + 2), // cause index 2 = conflict
            span(5, SpanKind::Perceptron, PERCEPTRON_PREDICT_HTM),
            span(5, SpanKind::WireDecode, 0),
        ];
        let text = spans_json(&spans, 12, 3, 1);
        let v = JsonValue::parse(&text).expect("trace JSON parses");
        assert_eq!(v.get("pushed").unwrap().as_f64(), Some(12.0));
        assert_eq!(v.get("dropped").unwrap().as_f64(), Some(3.0));
        assert_eq!(v.get("truncated").unwrap().as_f64(), Some(1.0));
        let arr = v.get("spans").unwrap().as_array().unwrap();
        assert_eq!(arr.len(), 4);
        assert_eq!(arr[0].get("outcome").unwrap().as_str(), Some("commit"));
        assert_eq!(
            arr[1].get("outcome").unwrap().as_str(),
            Some(ABORT_CAUSE_NAMES[2])
        );
        assert_eq!(arr[2].get("action").unwrap().as_str(), Some("predict_htm"));
        assert_eq!(arr[3].get("kind").unwrap().as_str(), Some("wire_decode"));
    }

    #[test]
    fn chrome_dump_loads_structurally() {
        let spans = [
            span(9, SpanKind::Section, 0),
            span(9, SpanKind::HtmAttempt, 2),
        ];
        let text = chrome_trace_json(&spans);
        let v = JsonValue::parse(&text).expect("chrome trace parses");
        let events = v.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 2);
        for e in events {
            assert_eq!(e.get("ph").unwrap().as_str(), Some("X"));
            assert!(e.get("ts").unwrap().as_f64().is_some());
            assert!(e.get("dur").unwrap().as_f64().is_some());
            assert!(e.get("args").unwrap().get("trace_id").is_some());
        }
        assert_eq!(
            events[1]
                .get("args")
                .unwrap()
                .get("detail")
                .unwrap()
                .as_str(),
            Some(ABORT_CAUSE_NAMES[1])
        );
    }

    #[test]
    fn now_ns_is_monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }
}
