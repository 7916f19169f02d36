//! Span budget of the flight recorder on the speculating hot path.
//!
//! The recorder rides every section a server request runs, so what it
//! costs is pinned as a count, the way `alloc_budget.rs` pins
//! allocations: spans pushed into the ring, read from
//! `TraceRecorder::pushed()`. With sampling off a request pushes nothing,
//! and with 1-in-64 sampling exactly one request in 64 pushes what a
//! fully traced request does. A count cannot drift with the host the way
//! a timed overhead does; the wall-clock cost of sampling a whole server
//! is `benchmark/`'s `telemetry.trace_overhead_frac`.
//!
//! The sampling gate and the processor count are knobs of the runtime
//! handle, so each test builds its own runtime, and the last one runs two
//! differently configured runtimes at once.

use gocc_htm::TxVar;
use gocc_optilock::{call_site, critical_mutex, ElidableMutex, GoccConfig, GoccRuntime};
use gocc_telemetry::trace;

/// Requests per phase; not a multiple of 64, so the last sample is a
/// partial period.
const REQUESTS: u64 = 10_001;
const SAMPLE_N: u64 = 64;
/// What a traced request that commits on the fast path pushes: the
/// perceptron's prediction, the committed attempt and its reward.
const SPANS_PER_REQUEST: u64 = 3;

/// One runtime serving requests of the server's shape around a section:
/// one sampling decision, the id pinned for the section, cleared after.
struct Server {
    rt: GoccRuntime,
    m: ElidableMutex,
    v: TxVar<u64>,
    site: usize,
}

impl Server {
    fn new(procs: usize) -> Self {
        Server {
            rt: GoccRuntime::new(GoccConfig {
                procs,
                ..GoccConfig::standard()
            }),
            m: ElidableMutex::new(),
            v: TxVar::new(0),
            site: call_site!(),
        }
    }

    /// Serves `n` requests; returns the spans they pushed.
    fn pushed_over(&self, n: u64) -> u64 {
        let before = self.rt.tracer().pushed();
        for _ in 0..n {
            let id = self.rt.tracer().begin_request();
            if id != 0 {
                trace::set_current(id);
            }
            critical_mutex(&self.rt, self.site, &self.m, |tx| {
                let cur = tx.read(&self.v)?;
                tx.write(&self.v, cur + 1)
            });
            if id != 0 {
                trace::clear_current();
            }
        }
        self.rt.tracer().pushed() - before
    }
}

#[test]
fn sampling_off_pushes_no_span() {
    let server = Server::new(8);
    assert_eq!(
        server.pushed_over(REQUESTS),
        0,
        "with sampling off a request pushes no span"
    );
    let snap = server.rt.stats().snapshot();
    assert_eq!(snap.slow_sections, 0, "left the fast path: {snap:?}");
}

#[test]
fn every_traced_request_pushes_the_same_spans() {
    let server = Server::new(8);
    // Warm: the perceptron predicts the fast path from here on.
    server.pushed_over(64);
    server.rt.tracer().configure(1, 0x5A3F);
    assert_eq!(server.pushed_over(1), SPANS_PER_REQUEST);
    assert_eq!(server.pushed_over(100), 100 * SPANS_PER_REQUEST);
}

#[test]
fn one_in_n_sampling_pushes_for_one_request_in_n() {
    let server = Server::new(8);
    server.pushed_over(64);
    // The first request after the switch is sampled, then every 64th.
    server.rt.tracer().configure(SAMPLE_N, 0x5A3F);
    assert_eq!(
        server.pushed_over(REQUESTS),
        REQUESTS.div_ceil(SAMPLE_N) * SPANS_PER_REQUEST
    );
    let snap = server.rt.stats().snapshot();
    assert_eq!(snap.slow_sections, 0, "left the fast path: {snap:?}");
}

/// Two runtimes in one process, serving at the same time on two threads:
/// one a single-processor runtime with sampling off, the other an 8-way
/// runtime sampling 1 in 64. Each reads only its own knobs.
#[test]
fn two_runtimes_at_once_keep_their_own_knobs() {
    let (single, eight) = (Server::new(1), Server::new(8));
    eight.rt.tracer().configure(SAMPLE_N, 0x5A3F);
    let barrier = std::sync::Barrier::new(2);
    let serve = |server: &Server| {
        barrier.wait();
        server.pushed_over(REQUESTS)
    };
    let (single_pushed, eight_pushed) = std::thread::scope(|s| {
        let a = s.spawn(|| serve(&single));
        let b = s.spawn(|| serve(&eight));
        (a.join().unwrap(), b.join().unwrap())
    });

    let one = single.rt.stats().snapshot();
    assert_eq!(one.single_thread_bypass, REQUESTS, "{one:?}");
    assert_eq!(one.htm_attempts, 0, "speculated at procs = 1: {one:?}");
    assert_eq!(single_pushed, 0, "sampling is off on this runtime");

    let eight_snap = eight.rt.stats().snapshot();
    assert_eq!(eight_snap.single_thread_bypass, 0, "{eight_snap:?}");
    assert_eq!(eight_snap.htm_attempts, REQUESTS, "{eight_snap:?}");
    assert_eq!(
        eight_pushed,
        REQUESTS.div_ceil(SAMPLE_N) * SPANS_PER_REQUEST
    );
}
