//! The cache-coherence cost model.
//!
//! The paper's speedups are a multicore cache-coherence story: every
//! `RLock`/`RUnlock` performs an atomic RMW on the lock's cache line, and
//! under contention those RMWs serialize on line-ownership transfers —
//! that is what collapses the baseline in Figures 6–8, while elided
//! readers touch no shared line and scale. A one-CPU container has no
//! coherence fabric: contended RMWs cost the same as uncontended ones, so
//! wall-clock alone cannot reproduce the figures' shapes.
//!
//! This module makes the modeled cost explicit, in the same spirit as the
//! capacity model in [`HtmConfig`](crate::HtmConfig): when the benchmark
//! harness declares `N` simulated cores, every RMW on a *shared hot line*
//! (lock words, mutex state, committed write-backs) is charged an extra
//! `rmw_penalty_ns × (N − 1)` of busy-wait, approximating the line
//! transfer latency each additional contender induces. With the default
//! `N = 1` the model is inert: unit tests and single-machine use pay
//! nothing.
//!
//! Both executions are charged symmetrically for genuine ownership
//! transfers: the pessimistic path for its lock-word RMWs, the HTM path
//! for every cache line its commits write back. What the model
//! deliberately does *not* charge is read sharing (MESI shared state) —
//! which is precisely the asymmetry lock elision exploits.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Default modeled cost of one contended line transfer, per extra core.
/// ~60 ns approximates a cross-core L2-to-L2 transfer on the paper's
/// Coffee Lake class of machines. Override with `set_rmw_penalty_ns`.
pub const DEFAULT_RMW_PENALTY_NS: u64 = 60;

static SIM_CORES: AtomicUsize = AtomicUsize::new(1);
static RMW_PENALTY_NS: AtomicU64 = AtomicU64::new(DEFAULT_RMW_PENALTY_NS);

/// Sets the simulated core count (the benchmark's sweep parameter).
/// Returns the previous value. `1` disables the model.
pub fn set_sim_cores(n: usize) -> usize {
    SIM_CORES.swap(n.max(1), Ordering::Relaxed)
}

/// Current simulated core count.
#[must_use]
pub fn sim_cores() -> usize {
    SIM_CORES.load(Ordering::Relaxed)
}

/// Overrides the per-extra-core RMW penalty (nanoseconds).
pub fn set_rmw_penalty_ns(ns: u64) -> u64 {
    RMW_PENALTY_NS.swap(ns, Ordering::Relaxed)
}

/// Charges one contended-RMW line transfer under the current model.
///
/// Call sites are the places a real machine would bounce a cache line in
/// Modified state between cores: mutex/RWMutex state words, elidable lock
/// words, and transactional commit write-backs.
#[inline]
pub fn charge_shared_rmw() {
    let cores = SIM_CORES.load(Ordering::Relaxed);
    if cores <= 1 {
        return;
    }
    let ns = RMW_PENALTY_NS.load(Ordering::Relaxed) * (cores as u64 - 1);
    spin_ns(ns);
}

/// Busy-waits approximately `ns` nanoseconds (calibrated spin).
pub fn spin_ns(ns: u64) {
    let per_ns = *SPINS_PER_NS.get_or_init(calibrate);
    let iters = (ns as f64 * per_ns) as u64;
    for _ in 0..iters {
        std::hint::spin_loop();
    }
}

static SPINS_PER_NS: OnceLock<f64> = OnceLock::new();

fn calibrate() -> f64 {
    // Time a fixed spin burst; repeat and take the max rate to dodge
    // scheduler preemption during calibration.
    let mut best = 0.0f64;
    for _ in 0..3 {
        let iters = 2_000_000u64;
        let t0 = std::time::Instant::now();
        for _ in 0..iters {
            std::hint::spin_loop();
        }
        let ns = t0.elapsed().as_nanos().max(1) as f64;
        best = best.max(iters as f64 / ns);
    }
    best.max(0.1)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One test, two phases: `SIM_CORES` is process-global, so the inert
    /// and the charging phase cannot run as sibling tests on the parallel
    /// runner. (Stop-gap; carrying the knob in `HtmConfig` is the fix.)
    #[test]
    fn inert_at_one_core_and_charges_scale_with_cores() {
        assert_eq!(sim_cores(), 1);
        let t0 = std::time::Instant::now();
        for _ in 0..10_000 {
            charge_shared_rmw();
        }
        assert!(
            t0.elapsed().as_millis() < 50,
            "model must be free when disabled"
        );

        let prev = set_sim_cores(8);
        let t0 = std::time::Instant::now();
        for _ in 0..1_000 {
            charge_shared_rmw();
        }
        let charged = t0.elapsed();
        set_sim_cores(prev.max(1));
        // 1000 × 60ns × 7 ≈ 420µs of modeled transfer time.
        assert!(
            charged.as_micros() >= 200,
            "expected modeled cost, got {charged:?}"
        );
    }

    #[test]
    fn spin_ns_is_roughly_calibrated() {
        let t0 = std::time::Instant::now();
        spin_ns(200_000);
        let e = t0.elapsed().as_nanos();
        assert!(e >= 50_000, "spin far too short: {e}ns");
    }
}
