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
//! It lives in its own integration-test binary, as one `#[test]`: it
//! flips the process-global knobs (`gosync::PROCS`, the trace `ACTIVE`
//! flag a sibling test's recorder would also set).

use gocc_htm::TxVar;
use gocc_optilock::{call_site, critical_mutex, ElidableMutex, GoccRuntime};
use gocc_telemetry::trace;

/// Requests per phase; not a multiple of 64, so the last sample is a
/// partial period.
const REQUESTS: u64 = 10_001;
const SAMPLE_N: u64 = 64;

#[test]
fn sampling_pushes_spans_for_one_request_in_n_and_none_when_off() {
    let prev = gocc_gosync::set_procs(8);
    let rt = GoccRuntime::new_default();
    let m = ElidableMutex::new();
    let v = TxVar::new(0u64);
    let site = call_site!();
    // The server's per-request shape around a section: one sampling
    // decision, the id pinned for the section, cleared after.
    let request = || {
        let id = rt.tracer().begin_request();
        if id != 0 {
            trace::set_current(id);
        }
        critical_mutex(&rt, site, &m, |tx| {
            let cur = tx.read(&v)?;
            tx.write(&v, cur + 1)
        });
        if id != 0 {
            trace::clear_current();
        }
    };
    let pushed_over = |n: u64| {
        let before = rt.tracer().pushed();
        for _ in 0..n {
            request();
        }
        rt.tracer().pushed() - before
    };
    // Warm: the perceptron predicts the fast path from here on.
    pushed_over(64);

    assert_eq!(
        pushed_over(REQUESTS),
        0,
        "with sampling off a request pushes no span"
    );

    // Every request traced: each pushes the same spans (the perceptron's
    // prediction, the committed attempt, its reward).
    rt.tracer().configure(1, 0x5A3F);
    let per_request = pushed_over(1);
    assert!(per_request > 0, "a traced request pushed nothing");
    assert_eq!(pushed_over(100), 100 * per_request);

    // One in 64: the first request after the switch is sampled, then
    // every 64th.
    rt.tracer().configure(SAMPLE_N, 0x5A3F);
    assert_eq!(
        pushed_over(REQUESTS),
        REQUESTS.div_ceil(SAMPLE_N) * per_request,
        "{per_request} spans per sampled request"
    );

    rt.tracer().configure(0, 0);
    gocc_gosync::set_procs(prev);
    assert_eq!(rt.stats().snapshot().slow_sections, 0, "left the fast path");
}
