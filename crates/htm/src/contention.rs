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
//! capacity model in [`HtmConfig`](crate::HtmConfig): a runtime built with
//! `N` [`sim_cores`](crate::HtmConfig::sim_cores) charges every RMW on a
//! *shared hot line* (lock words, mutex state, committed write-backs) an
//! extra `RMW_PENALTY_NS × (N − 1)` of busy-wait, approximating the line
//! transfer latency each additional contender induces. The charge is
//! worked out once per runtime ([`HtmRuntime::rmw_charge_ns`]), so two
//! runtimes in one process can model different core counts. With the
//! default `N = 1` the model is inert: unit tests and single-machine use
//! pay nothing.
//!
//! Both executions are charged symmetrically for genuine ownership
//! transfers: the pessimistic path for its lock-word RMWs, the HTM path
//! for every cache line its commits write back. What the model
//! deliberately does *not* charge is read sharing (MESI shared state) —
//! which is precisely the asymmetry lock elision exploits.
//!
//! [`HtmRuntime::rmw_charge_ns`]: crate::HtmRuntime::rmw_charge_ns

use std::sync::OnceLock;

/// Modeled cost of one contended line transfer, per extra core. ~60 ns
/// approximates a cross-core L2-to-L2 transfer on the paper's Coffee Lake
/// class of machines.
pub const RMW_PENALTY_NS: u32 = 60;

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

    #[test]
    fn inert_at_one_core() {
        let rt = crate::HtmRuntime::new(crate::HtmConfig::coffee_lake());
        assert_eq!(rt.rmw_charge_ns(), 0);
        let t0 = std::time::Instant::now();
        for _ in 0..10_000 {
            rt.charge_shared_rmw();
        }
        assert!(
            t0.elapsed().as_millis() < 50,
            "model must be free when disabled"
        );
    }

    #[test]
    fn charges_scale_with_cores() {
        let rt = crate::HtmRuntime::new(crate::HtmConfig {
            sim_cores: 8,
            ..crate::HtmConfig::coffee_lake()
        });
        assert_eq!(rt.rmw_charge_ns(), 7 * RMW_PENALTY_NS);
        let t0 = std::time::Instant::now();
        for _ in 0..1_000 {
            rt.charge_shared_rmw();
        }
        let charged = t0.elapsed();
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
