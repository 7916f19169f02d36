//! Allocation budget for the steady-state hot path.
//!
//! The whole point of the reusable `TxContext` arena (DESIGN.md §10) is
//! that a `FastLock`→reads/writes→`FastUnlock` cycle performs **zero**
//! heap allocations once a thread is warm. This test pins that property
//! with a counting `#[global_allocator]`; it lives in its own
//! integration-test binary so the allocator swap cannot pollute any other
//! test's measurements.
//!
//! The counter is a per-thread cell: other test threads in this binary
//! (or the runtime's own background machinery, if any ever appears) do
//! not perturb the thread under measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gocc_htm::TxVar;
use gocc_optilock::{call_site, critical_mutex, ElidableMutex, GoccConfig, GoccRuntime};

struct CountingAllocator;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: delegates every operation to `System`; only adds bookkeeping.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // try_with: the allocator can be called while this thread's TLS is
        // being torn down, where `with` would abort the process.
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations_on_this_thread() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Runs `iters` sections and returns how many heap allocations this
/// thread performed across them.
fn allocs_over<F: FnMut()>(iters: u64, mut section: F) -> u64 {
    let before = allocations_on_this_thread();
    for _ in 0..iters {
        section();
    }
    allocations_on_this_thread() - before
}

#[test]
fn steady_state_fast_sections_do_not_allocate() {
    let rt = GoccRuntime::new_default();
    let m = ElidableMutex::new();
    let v = TxVar::new(0u64);
    let site = call_site!();
    let run = || {
        critical_mutex(&rt, site, &m, |tx| {
            let cur = tx.read(&v)?;
            tx.write(&v, cur + 1)
        })
    };
    // Warmup: the first section on this thread allocates its context,
    // which registers its commit slot in the same step.
    for _ in 0..64 {
        run();
    }
    let allocs = allocs_over(10_000, run);
    assert_eq!(
        allocs, 0,
        "speculative sections must be allocation-free after warmup"
    );
    // Sanity: the sections actually ran on the fast path and committed,
    // all in one arena (which claimed its one commit slot when it was
    // made).
    let snap = rt.stats().snapshot();
    assert!(snap.fast_commits >= 10_000, "not elided: {snap:?}");
    let htm = rt.htm().stats().snapshot();
    assert!(htm.ctx_reused >= 10_000, "arena not reused: {htm:?}");
    assert!(htm.ctx_fresh <= 2, "steady state kept allocating: {htm:?}");
}

#[test]
fn steady_state_direct_sections_do_not_allocate() {
    // procs = 1 engages the single-OS-thread bypass: every section takes
    // the real lock and runs in direct mode, which must be equally free
    // of allocations.
    let rt = GoccRuntime::new(GoccConfig {
        procs: 1,
        ..GoccConfig::standard()
    });
    let m = ElidableMutex::new();
    let v = TxVar::new(0u64);
    let site = call_site!();
    let run = || {
        critical_mutex(&rt, site, &m, |tx| {
            let cur = tx.read(&v)?;
            tx.write(&v, cur + 1)
        })
    };
    for _ in 0..64 {
        run();
    }
    // Every slow-path acquisition scans the commit-slot registry for
    // in-flight write-backs. Give the scan more than one slot to walk:
    // this thread's arena holds one while another thread claims a second.
    let claim_a_slot = || {
        let rt = gocc_htm::HtmRuntime::new(gocc_htm::HtmConfig::coffee_lake());
        gocc_htm::Tx::fast(&rt).rollback();
    };
    claim_a_slot();
    std::thread::spawn(claim_a_slot).join().unwrap();
    assert!(gocc_htm::commit_slot_usage().0 >= 2);
    let allocs = allocs_over(10_000, run);
    assert_eq!(
        allocs, 0,
        "slow-path sections must be allocation-free after warmup"
    );
    let snap = rt.stats().snapshot();
    assert!(snap.slow_sections >= 10_000, "bypass not engaged: {snap:?}");
    assert_eq!(snap.htm_attempts, 0, "speculated at procs=1: {snap:?}");
}

#[test]
fn fully_traced_sections_do_not_allocate() {
    // The flight recorder rides the same hot path: with every request
    // sampled (N = 1), the sampling decision, the id propagation and the
    // per-attempt span pushes must all stay within the zero-allocation
    // budget — the span ring is fixed-size atomics by construction.
    let rt = GoccRuntime::new_default();
    rt.tracer().configure(1, 0xA110_C8);
    let m = ElidableMutex::new();
    let v = TxVar::new(0u64);
    let site = call_site!();
    let run = || {
        let id = rt.tracer().begin_request();
        if id != 0 {
            gocc_telemetry::trace::set_current(id);
        }
        critical_mutex(&rt, site, &m, |tx| {
            let cur = tx.read(&v)?;
            tx.write(&v, cur + 1)
        });
        if id != 0 {
            gocc_telemetry::trace::clear_current();
        }
    };
    for _ in 0..64 {
        run();
    }
    let allocs = allocs_over(10_000, run);
    assert_eq!(
        allocs, 0,
        "fully-traced sections must be allocation-free after warmup"
    );
    // Sanity: the recorder actually saw the traffic.
    assert!(
        rt.tracer().pushed() >= 10_000,
        "tracing was not engaged: {} spans",
        rt.tracer().pushed()
    );
}

#[test]
fn aborted_sections_do_not_allocate_either() {
    // Conflict-free aborts exercise rollback + context release + retry;
    // the unfriendly abort below forces slow-path completion every time.
    // None of that machinery may allocate in steady state.
    let rt = GoccRuntime::new_default();
    let m = ElidableMutex::new();
    let site = call_site!();
    let run = || {
        critical_mutex(&rt, site, &m, |tx| {
            tx.unfriendly()?;
            Ok(())
        })
    };
    for _ in 0..64 {
        run();
    }
    let allocs = allocs_over(5_000, run);
    assert_eq!(
        allocs, 0,
        "abort/rollback/fallback must be allocation-free after warmup"
    );
}
