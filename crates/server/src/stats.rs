//! Lock-free server counters and the STATS JSON document.

use std::sync::atomic::{AtomicU64, Ordering};

use gocc_telemetry::{JsonWriter, LatencyHistogram};
use gocc_wire::Request;

use crate::overload::{ShedCause, SHED_CAUSE_NAMES, TRANSITION_NAMES};

/// Wire verbs, in STATS reporting order.
const VERB_NAMES: [&str; 12] = [
    "get", "set", "del", "incr", "scan", "stats", "health", "shutdown", "trace", "flush", "set_s",
    "get_s",
];

pub(crate) fn verb_index(req: &Request<'_>) -> usize {
    match req {
        Request::Get { .. } => 0,
        Request::Set { .. } => 1,
        Request::Del { .. } => 2,
        Request::Incr { .. } => 3,
        Request::Scan { .. } => 4,
        Request::Stats => 5,
        Request::Health => 6,
        Request::Shutdown => 7,
        Request::Trace { .. } => 8,
        Request::Flush => 9,
        Request::SetS { .. } => 10,
        Request::GetS { .. } => 11,
        Request::Repl(_) => unreachable!("a replication verb is handled before it is counted"),
    }
}

/// Per-worker admission gauges, reported in the STATS `per_worker` array.
#[derive(Debug, Default)]
pub struct WorkerGauges {
    /// Frames seen in the worker's most recent pump pass (a gauge, not a
    /// counter).
    queue_depth: AtomicU64,
    /// High-water mark of `queue_depth` over the server's lifetime.
    queue_depth_max: AtomicU64,
    /// Requests this worker shed.
    shed_total: AtomicU64,
    /// Requests this worker executed against the engine.
    executed: AtomicU64,
    /// Idle decisions that blocked on the worker's sockets.
    idle_blocks: AtomicU64,
    /// Idle decisions that took a timed pass (the key predates the one
    /// wait: the pass was a sleep).
    coalesce_sleeps: AtomicU64,
}

impl WorkerGauges {
    /// Most recent pump pass's queue depth.
    #[must_use]
    pub fn queue_depth(&self) -> u64 {
        self.queue_depth.load(Ordering::Relaxed)
    }

    /// Lifetime high-water mark of the queue depth.
    #[must_use]
    pub fn queue_depth_max(&self) -> u64 {
        self.queue_depth_max.load(Ordering::Relaxed)
    }

    /// Requests this worker shed.
    #[must_use]
    pub fn shed_total(&self) -> u64 {
        self.shed_total.load(Ordering::Relaxed)
    }

    /// Requests this worker executed.
    #[must_use]
    pub fn executed(&self) -> u64 {
        self.executed.load(Ordering::Relaxed)
    }

    /// Times this worker, finding nothing to do, blocked until a socket
    /// of its connections was ready (or it was woken): the decision for a
    /// lone request, which is then served the moment it arrives.
    #[must_use]
    pub fn idle_blocks(&self) -> u64 {
        self.idle_blocks.load(Ordering::Relaxed)
    }

    /// Times this worker, finding nothing to do, took a timed pass
    /// instead — on its waker alone until the next tick, one per
    /// `IDLE_PASS`: its peers pipeline, or an idle-pass duty runs on a
    /// clock. A request arriving meanwhile waits for that tick.
    #[must_use]
    pub fn coalesce_sleeps(&self) -> u64 {
        self.coalesce_sleeps.load(Ordering::Relaxed)
    }
}

/// What a worker counts while a pass runs and publishes into
/// [`ServerCounters`] once ([`ServerCounters::publish`]): at the pass's
/// end, and before a control verb runs, so a STATS answer counts every
/// request ahead of it.
#[derive(Debug, Default)]
pub(crate) struct Tally {
    by_verb: [u64; 12],
    executed: u64,
    batches_executed: u64,
    single_request_batches: u64,
}

impl Tally {
    /// Counts one decoded request of verb index `verb`.
    pub(crate) fn request(&mut self, verb: usize) {
        self.by_verb[verb] += 1;
    }

    /// Counts `n` requests executed against the engine.
    pub(crate) fn executed(&mut self, n: u64) {
        self.executed += n;
    }

    /// Counts one executed shard-group of `len` requests.
    pub(crate) fn batch(&mut self, len: u64) {
        self.batches_executed += 1;
        self.single_request_batches += u64::from(len == 1);
    }
}

/// Relaxed atomic counters for everything the data plane touches.
#[derive(Debug)]
pub struct ServerCounters {
    accepted: AtomicU64,
    closed: AtomicU64,
    /// Connections lost at the door: `accept()` failed, or the accepted
    /// stream could not be made non-blocking.
    accept_errors: AtomicU64,
    by_verb: [AtomicU64; 12],
    malformed: AtomicU64,
    /// Oversized frames skipped (connection survived and resynchronized).
    oversized: AtomicU64,
    slow_drops: AtomicU64,
    /// Requests shed, by [`ShedCause::index`].
    shed_by_cause: [AtomicU64; 5],
    /// Total nanoseconds spent deciding + answering shed requests.
    shed_ns_total: AtomicU64,
    /// Slowest single shed decision, nanoseconds.
    shed_ns_max: AtomicU64,
    /// Requests whose deadline had already expired on arrival (never
    /// reached the engine).
    deadline_pre: AtomicU64,
    /// Requests whose deadline expired during execution (effect applied,
    /// response replaced with `DeadlineExceeded`).
    deadline_post: AtomicU64,
    /// End-to-end data-verb latency (engine execution, ns) — STATS
    /// `request_latency`.
    request_latency: LatencyHistogram,
    /// Shard-groups executed through one elided section (a batch of 1 is
    /// still one group).
    batches_executed: AtomicU64,
    /// Shard-groups that held exactly one request — when this tracks
    /// `batches_executed`, clients aren't pipelining and the batch path
    /// adds no amortization.
    single_request_batches: AtomicU64,
    /// Distribution of requests per executed shard-group (log2 buckets,
    /// counting requests rather than nanoseconds).
    requests_per_batch: LatencyHistogram,
    per_worker: Vec<WorkerGauges>,
}

impl Default for ServerCounters {
    fn default() -> Self {
        ServerCounters::new(1)
    }
}

impl ServerCounters {
    /// Counters for a server with `workers` worker threads.
    #[must_use]
    pub fn new(workers: usize) -> Self {
        ServerCounters {
            accepted: AtomicU64::new(0),
            closed: AtomicU64::new(0),
            accept_errors: AtomicU64::new(0),
            by_verb: Default::default(),
            malformed: AtomicU64::new(0),
            oversized: AtomicU64::new(0),
            slow_drops: AtomicU64::new(0),
            shed_by_cause: Default::default(),
            shed_ns_total: AtomicU64::new(0),
            shed_ns_max: AtomicU64::new(0),
            deadline_pre: AtomicU64::new(0),
            deadline_post: AtomicU64::new(0),
            request_latency: LatencyHistogram::new(),
            batches_executed: AtomicU64::new(0),
            single_request_batches: AtomicU64::new(0),
            requests_per_batch: LatencyHistogram::new(),
            per_worker: (0..workers.max(1))
                .map(|_| WorkerGauges::default())
                .collect(),
        }
    }

    pub(crate) fn note_accept(&self) {
        self.accepted.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_close(&self) {
        self.closed.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_accept_error(&self) {
        self.accept_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds what `worker` counted since its last publication, and empties
    /// `tally`.
    pub(crate) fn publish(&self, worker: usize, tally: &mut Tally) {
        let add = |counter: &AtomicU64, n: u64| {
            if n > 0 {
                counter.fetch_add(n, Ordering::Relaxed);
            }
        };
        for (counter, &n) in self.by_verb.iter().zip(&tally.by_verb) {
            add(counter, n);
        }
        let g = &self.per_worker[worker % self.per_worker.len()];
        add(&g.executed, tally.executed);
        add(&self.batches_executed, tally.batches_executed);
        add(&self.single_request_batches, tally.single_request_batches);
        *tally = Tally::default();
    }

    pub(crate) fn note_malformed(&self) {
        self.malformed.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_oversized(&self) {
        self.oversized.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_slow_drop(&self) {
        self.slow_drops.fetch_add(1, Ordering::Relaxed);
    }

    /// Accounts one shed request: its cause, the worker that shed it, and
    /// the nanoseconds its reject path took from the verdict on — the
    /// brownout state read and the `Shed` span; the decision before it is
    /// a few compares and untimed, so an admitted request reads no clock.
    /// The soak asserts the mean stays under 10 µs.
    pub(crate) fn note_shed(&self, worker: usize, cause: ShedCause, ns: u64) {
        self.shed_by_cause[cause.index()].fetch_add(1, Ordering::Relaxed);
        self.shed_ns_total.fetch_add(ns, Ordering::Relaxed);
        self.shed_ns_max.fetch_max(ns, Ordering::Relaxed);
        self.per_worker[worker % self.per_worker.len()]
            .shed_total
            .fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_deadline_pre(&self) {
        self.deadline_pre.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_deadline_post(&self) {
        self.deadline_post.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` executed requests at `ns` each in `request_latency`: a
    /// shard-group shares its section's time evenly, so it is one record.
    pub(crate) fn note_latency(&self, ns: u64, n: u64) {
        self.request_latency.record_n(ns, n);
    }

    /// Records one executed shard-group of `len` requests in
    /// `requests_per_batch`.
    pub(crate) fn note_batch_size(&self, len: u64) {
        self.requests_per_batch.record(len);
    }

    /// Accounts one idle decision of `worker`: it blocked on its sockets,
    /// or took a timed pass.
    pub(crate) fn note_idle(&self, worker: usize, blocked: bool) {
        let g = &self.per_worker[worker % self.per_worker.len()];
        let counter = if blocked {
            &g.idle_blocks
        } else {
            &g.coalesce_sleeps
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn set_queue_depth(&self, worker: usize, depth: u64) {
        let g = &self.per_worker[worker % self.per_worker.len()];
        g.queue_depth.store(depth, Ordering::Relaxed);
        g.queue_depth_max.fetch_max(depth, Ordering::Relaxed);
    }

    /// Connections accepted.
    #[must_use]
    pub fn accepted(&self) -> u64 {
        self.accepted.load(Ordering::Relaxed)
    }

    /// Connections closed.
    #[must_use]
    pub fn closed(&self) -> u64 {
        self.closed.load(Ordering::Relaxed)
    }

    /// Connections lost to a failed `accept()` or socket set-up.
    #[must_use]
    pub fn accept_errors(&self) -> u64 {
        self.accept_errors.load(Ordering::Relaxed)
    }

    /// Requests served across all verbs.
    #[must_use]
    pub fn total_requests(&self) -> u64 {
        self.by_verb.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Frames that failed to decode.
    #[must_use]
    pub fn malformed(&self) -> u64 {
        self.malformed.load(Ordering::Relaxed)
    }

    /// Oversized frames skipped with the connection kept alive.
    #[must_use]
    pub fn oversized(&self) -> u64 {
        self.oversized.load(Ordering::Relaxed)
    }

    /// Connections dropped on write timeout.
    #[must_use]
    pub fn slow_drops(&self) -> u64 {
        self.slow_drops.load(Ordering::Relaxed)
    }

    /// Total requests shed, all causes.
    #[must_use]
    pub fn shed_total(&self) -> u64 {
        self.shed_by_cause
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// Shed counts by [`ShedCause::index`].
    #[must_use]
    pub fn shed_by_cause(&self) -> [u64; 5] {
        let mut out = [0; 5];
        for (o, c) in out.iter_mut().zip(&self.shed_by_cause) {
            *o = c.load(Ordering::Relaxed);
        }
        out
    }

    /// Total nanoseconds spent on shed paths.
    #[must_use]
    pub fn shed_ns_total(&self) -> u64 {
        self.shed_ns_total.load(Ordering::Relaxed)
    }

    /// Slowest single shed path, nanoseconds.
    #[must_use]
    pub fn shed_ns_max(&self) -> u64 {
        self.shed_ns_max.load(Ordering::Relaxed)
    }

    /// Requests rejected before execution because their deadline had
    /// already expired.
    #[must_use]
    pub fn deadline_pre(&self) -> u64 {
        self.deadline_pre.load(Ordering::Relaxed)
    }

    /// Requests whose deadline expired during execution.
    #[must_use]
    pub fn deadline_post(&self) -> u64 {
        self.deadline_post.load(Ordering::Relaxed)
    }

    /// All deadline misses, pre + post.
    #[must_use]
    pub fn deadline_misses(&self) -> u64 {
        self.deadline_pre() + self.deadline_post()
    }

    /// Data-verb execution latency (STATS `request_latency`).
    #[must_use]
    pub fn request_latency(&self) -> &LatencyHistogram {
        &self.request_latency
    }

    /// Shard-groups executed through one elided section.
    #[must_use]
    pub fn batches_executed(&self) -> u64 {
        self.batches_executed.load(Ordering::Relaxed)
    }

    /// Shard-groups that held exactly one request.
    #[must_use]
    pub fn single_request_batches(&self) -> u64 {
        self.single_request_batches.load(Ordering::Relaxed)
    }

    /// Distribution of requests per executed shard-group.
    #[must_use]
    pub fn requests_per_batch(&self) -> &LatencyHistogram {
        &self.requests_per_batch
    }

    /// Per-worker admission gauges.
    #[must_use]
    pub fn per_worker(&self) -> &[WorkerGauges] {
        &self.per_worker
    }

    /// Renders the STATS document. `telemetry_json`, `trace_json`,
    /// `wal_json` and `repl_json` are spliced in raw (a rendered
    /// [`gocc_telemetry::TelemetryReport`] / flight-recorder counter
    /// object / WAL counter object / replication object, or `null`);
    /// `health` and `transitions` come from the brownout controller;
    /// `git_rev` and `role` identify the build and the node's current
    /// replication role.
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn to_json(
        &self,
        mode: &str,
        git_rev: &str,
        role: &str,
        workers: u64,
        shards: u64,
        entries: u64,
        health: &str,
        transitions: [u64; 4],
        telemetry_json: &str,
        trace_json: &str,
        wal_json: &str,
        repl_json: &str,
    ) -> String {
        let mut w = JsonWriter::new();
        w.begin_object()
            .field_str("server", "goccd")
            .field_str("mode", mode)
            .field_str("git_rev", git_rev)
            .field_str("role", role)
            .field_u64("workers", workers)
            .field_u64("shards", shards)
            .field_u64("conns_accepted", self.accepted())
            .field_u64("conns_closed", self.closed())
            .field_u64("accept_errors", self.accept_errors())
            .key("requests")
            .begin_object()
            .field_u64("total", self.total_requests());
        for (name, counter) in VERB_NAMES.iter().zip(&self.by_verb) {
            w.field_u64(name, counter.load(Ordering::Relaxed));
        }
        w.end_object()
            .field_u64("malformed_frames", self.malformed())
            .field_u64("oversized_frames", self.oversized())
            .field_u64("slow_client_drops", self.slow_drops())
            .key("overload")
            .begin_object()
            .field_str("health", health)
            .field_u64("shed_total", self.shed_total())
            .key("shed_by_cause")
            .begin_object();
        for (name, n) in SHED_CAUSE_NAMES.iter().zip(self.shed_by_cause()) {
            w.field_u64(name, n);
        }
        w.end_object()
            .field_u64("shed_ns_total", self.shed_ns_total())
            .field_u64("shed_ns_max", self.shed_ns_max())
            .field_u64("deadline_pre", self.deadline_pre())
            .field_u64("deadline_post", self.deadline_post())
            .key("transitions")
            .begin_object();
        for (name, n) in TRANSITION_NAMES.iter().zip(transitions) {
            w.field_u64(name, n);
        }
        w.end_object().end_object();
        let lat = self.request_latency.snapshot();
        w.key("request_latency")
            .begin_object()
            .field_u64("count", lat.count)
            .field_f64("mean_ns", lat.mean())
            .field_u64("p50_ns", lat.quantile(0.5))
            .field_u64("p99_ns", lat.quantile(0.99))
            .field_u64("max_ns", lat.max)
            .end_object();
        let rpb = self.requests_per_batch.snapshot();
        w.key("batch")
            .begin_object()
            .field_u64("batches_executed", self.batches_executed())
            .field_u64("single_request_batches", self.single_request_batches())
            .key("requests_per_batch")
            .begin_object()
            .field_u64("count", rpb.count)
            .field_f64("mean", rpb.mean())
            .field_u64("p50", rpb.quantile(0.5))
            .field_u64("p99", rpb.quantile(0.99))
            .field_u64("max", rpb.max)
            .end_object()
            .end_object();
        w.key("per_worker").begin_array();
        for g in &self.per_worker {
            w.begin_object()
                .field_u64("queue_depth", g.queue_depth())
                .field_u64("queue_depth_max", g.queue_depth_max())
                .field_u64("shed_total", g.shed_total())
                .field_u64("executed", g.executed())
                .field_u64("idle_blocks", g.idle_blocks())
                .field_u64("coalesce_sleeps", g.coalesce_sleeps())
                .end_object();
        }
        w.end_array()
            .field_u64("entries", entries)
            .field_raw("repl", repl_json)
            .field_raw("wal", wal_json)
            .field_raw("trace", trace_json)
            .field_raw("telemetry", telemetry_json)
            .end_object();
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gocc_telemetry::JsonValue;

    #[test]
    fn stats_document_parses_and_reconciles() {
        let c = ServerCounters::new(2);
        c.note_accept();
        c.note_accept();
        c.note_close();
        let mut tally = Tally::default();
        tally.request(verb_index(&Request::Get { key: b"k" }));
        tally.request(verb_index(&Request::Set {
            key: b"k",
            value: 1,
            ttl: 0,
        }));
        tally.request(verb_index(&Request::Get { key: b"k" }));
        tally.request(verb_index(&Request::Health));
        c.note_malformed();
        tally.request(verb_index(&Request::Trace { max: 64 }));
        assert_eq!(
            c.total_requests(),
            0,
            "nothing counts before it is published"
        );
        c.publish(0, &mut tally);
        c.publish(0, &mut tally);
        let json = c.to_json(
            "gocc",
            "deadbeef",
            "primary",
            2,
            4,
            17,
            "healthy",
            [0; 4],
            "null",
            r#"{"sample_n":64}"#,
            r#"{"enabled":true,"fsyncs":3}"#,
            r#"{"role":"primary","subscribers":0}"#,
        );
        let v = JsonValue::parse(&json).expect("stats JSON parses");
        assert_eq!(v.get("mode").unwrap().as_str(), Some("gocc"));
        assert_eq!(v.get("git_rev").unwrap().as_str(), Some("deadbeef"));
        assert_eq!(v.get("role").unwrap().as_str(), Some("primary"));
        assert_eq!(
            v.get("repl").unwrap().get("role").unwrap().as_str(),
            Some("primary")
        );
        assert_eq!(v.get("conns_accepted").unwrap().as_f64(), Some(2.0));
        let reqs = v.get("requests").unwrap();
        assert_eq!(reqs.get("total").unwrap().as_f64(), Some(5.0));
        assert_eq!(reqs.get("get").unwrap().as_f64(), Some(2.0));
        assert_eq!(reqs.get("set").unwrap().as_f64(), Some(1.0));
        assert_eq!(reqs.get("health").unwrap().as_f64(), Some(1.0));
        assert_eq!(reqs.get("trace").unwrap().as_f64(), Some(1.0));
        assert_eq!(v.get("telemetry"), Some(&JsonValue::Null));
        assert_eq!(
            v.get("trace").unwrap().get("sample_n").unwrap().as_f64(),
            Some(64.0)
        );
        assert_eq!(v.get("entries").unwrap().as_f64(), Some(17.0));
        assert_eq!(
            v.get("wal").unwrap().get("fsyncs").unwrap().as_f64(),
            Some(3.0)
        );
    }

    #[test]
    fn batch_counters_reconcile_in_the_document() {
        let c = ServerCounters::new(1);
        let mut tally = Tally::default();
        for len in [1, 8, 1, 32] {
            tally.batch(len);
            c.note_batch_size(len);
        }
        c.publish(0, &mut tally);
        assert_eq!(c.batches_executed(), 4);
        assert_eq!(c.single_request_batches(), 2);
        assert_eq!(c.requests_per_batch().snapshot().max, 32);
        let json = c.to_json(
            "gocc", "unknown", "primary", 1, 4, 0, "healthy", [0; 4], "null", "null", "null",
            "null",
        );
        let v = JsonValue::parse(&json).expect("parses");
        let b = v.get("batch").unwrap();
        assert_eq!(b.get("batches_executed").unwrap().as_f64(), Some(4.0));
        assert_eq!(b.get("single_request_batches").unwrap().as_f64(), Some(2.0));
        let rpb = b.get("requests_per_batch").unwrap();
        assert_eq!(rpb.get("count").unwrap().as_f64(), Some(4.0));
        assert_eq!(rpb.get("max").unwrap().as_f64(), Some(32.0));
    }

    #[test]
    fn overload_counters_reconcile_in_the_document() {
        let c = ServerCounters::new(2);
        c.note_shed(0, ShedCause::QueueFull, 900);
        c.note_shed(1, ShedCause::SheddingWrite, 1_400);
        c.note_shed(1, ShedCause::SheddingWrite, 700);
        c.note_deadline_pre();
        c.note_deadline_post();
        c.note_oversized();
        c.set_queue_depth(0, 12);
        c.set_queue_depth(0, 3);
        let mut tally = Tally::default();
        tally.executed(1);
        c.publish(1, &mut tally);
        c.note_latency(2_000, 1);
        c.note_accept_error();
        c.note_idle(1, true);
        c.note_idle(1, false);
        c.note_idle(1, false);
        assert_eq!(c.shed_total(), 3);
        assert_eq!(c.shed_by_cause(), [1, 0, 0, 0, 2]);
        assert_eq!(c.shed_ns_total(), 3_000);
        assert_eq!(c.shed_ns_max(), 1_400);
        assert_eq!(c.deadline_misses(), 2);
        assert_eq!(c.request_latency().snapshot().count, 1);
        let json = c.to_json(
            "lock",
            "unknown",
            "replica",
            2,
            4,
            0,
            "shedding",
            [1, 1, 0, 0],
            "null",
            "null",
            "null",
            "null",
        );
        let v = JsonValue::parse(&json).expect("parses");
        let o = v.get("overload").unwrap();
        assert_eq!(o.get("health").unwrap().as_str(), Some("shedding"));
        assert_eq!(o.get("shed_total").unwrap().as_f64(), Some(3.0));
        assert_eq!(
            o.get("shed_by_cause")
                .unwrap()
                .get("shedding_write")
                .unwrap()
                .as_f64(),
            Some(2.0)
        );
        assert_eq!(
            o.get("transitions")
                .unwrap()
                .get("healthy_to_degraded")
                .unwrap()
                .as_f64(),
            Some(1.0)
        );
        let workers = v.get("per_worker").unwrap().as_array().unwrap();
        let w0 = &workers[0];
        assert_eq!(w0.get("queue_depth").unwrap().as_f64(), Some(3.0));
        assert_eq!(w0.get("queue_depth_max").unwrap().as_f64(), Some(12.0));
        let w1 = &workers[1];
        assert_eq!(w1.get("shed_total").unwrap().as_f64(), Some(2.0));
        assert_eq!(w1.get("executed").unwrap().as_f64(), Some(1.0));
        assert_eq!(w1.get("idle_blocks").unwrap().as_f64(), Some(1.0));
        assert_eq!(w1.get("coalesce_sleeps").unwrap().as_f64(), Some(2.0));
        assert_eq!(w0.get("idle_blocks").unwrap().as_f64(), Some(0.0));
        assert_eq!(v.get("accept_errors").unwrap().as_f64(), Some(1.0));
        assert_eq!(v.get("oversized_frames").unwrap().as_f64(), Some(1.0));
        let lat = v.get("request_latency").unwrap();
        assert_eq!(lat.get("count").unwrap().as_f64(), Some(1.0));
        assert_eq!(lat.get("max_ns").unwrap().as_f64(), Some(2000.0));
    }
}
