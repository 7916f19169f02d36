//! Seeded, deterministic fault injection for the GOCC stack.
//!
//! GOCC's safety argument (paper §5.4) is that lock elision *degrades
//! gracefully*: abort-cause-keyed retry, mutex-mismatch recovery and the
//! perceptron fallback guarantee the pessimistic lock path always wins
//! eventually. Nothing in normal operation forces those paths, so this
//! crate manufactures the rare events on demand — and does so
//! *deterministically*, so any failure a fault schedule exposes is
//! replayable from its seed.
//!
//! Four plans cover the stack's correctness fault surfaces:
//!
//! * [`HtmFaultPlan`] — injects transaction aborts
//!   (conflict/capacity/explicit/spurious) into `gocc-htm` at per-site
//!   configurable probabilities, driving the `optilock` retry policy and
//!   perceptron through every branch;
//! * [`PairingFaultPlan`] — tells a driver when to emit a mis-paired
//!   Lock/Unlock sequence (hand-over-hand style) so mutex-mismatch
//!   detection is exercised end-to-end;
//! * [`TransportFaultPlan`] — short reads/writes, stalls and mid-frame
//!   resets for the `wire`/`server`/`loadgen` I/O path;
//! * [`StorageFaultPlan`] — torn appends, short fsyncs and crash points
//!   for the `wal` durability path, keyed by `(seed, lsn)`; injected
//!   under the `WalFile` trait so the WAL cannot tell a simulated file
//!   from a real one (`crash_soak` replays its schedules both in-process
//!   and by aborting a real `goccd`).
//!
//! A fourth, standalone plan targets the *overload* surface rather than
//! the correctness surface: [`LoadFaultPlan`] injects seeded worker
//! stalls and slow-store draws so `goccd`'s brownout controller can be
//! driven through every state transition deterministically, without
//! constructing wall-clock load.
//!
//! # The replay-by-seed contract
//!
//! Every decision is a pure function of `(seed, key, n)` where `key` is
//! the call site (HTM/pairing) or stream id (transport) and `n` is that
//! key's decision index, tracked by a per-plan [`SeqTable`]. Re-running
//! the same deterministic driver with the same seed therefore reproduces
//! the *identical* fault schedule — same decisions, in the same per-key
//! order, with the same injected-fault counts. No global RNG is shared
//! across keys, so schedules for independent keys do not perturb each
//! other.
//!
//! The crate depends only on `gocc-telemetry` (for JSON emission); the
//! layers above (`htm`, `wire`, `server`, `loadgen`) depend on it, never
//! the other way around.

mod htm;
mod load;
mod pairing;
mod report;
mod seq;
mod storage;
mod transport;

pub use htm::{AbortMix, HtmFaultPlan, InjectedAbort, INJECTED_ABORT_NAMES};
pub use load::{LoadFault, LoadFaultPlan, LoadMix};
pub use pairing::PairingFaultPlan;
pub use report::FaultReport;
pub use seq::SeqTable;
pub use storage::{StorageFault, StorageFaultPlan, StorageMix};
pub use transport::{TransportFault, TransportFaultPlan, TransportMix, TRANSPORT_FAULT_NAMES};

use gocc_telemetry::SplitMix64;
use std::sync::Arc;

/// One deterministic decision: a pure function of `(seed, key, n)`.
///
/// SplitMix64's output stage is a strong 64-bit mixer, so seeding it with
/// the xor-folded tuple and taking one output gives an independent,
/// reproducible draw per `(key, n)` pair.
#[must_use]
pub(crate) fn decide(seed: u64, key: u64, n: u64) -> u64 {
    let folded =
        seed ^ key.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ n.wrapping_mul(0xD1B5_4A32_D192_ED03);
    SplitMix64::new(folded).next_u64()
}

/// Converts a raw draw to a uniform in `[0, 1)`.
pub(crate) fn unit(draw: u64) -> f64 {
    // 53 explicit mantissa bits; exact and bias-free.
    (draw >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Configuration for a full [`FaultPlane`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FaultPlaneConfig {
    /// Per-attempt HTM abort injection mix (applies to every site unless
    /// overridden per site on the plan).
    pub abort_mix: AbortMix,
    /// Probability a driver-controlled section mis-pairs its unlock.
    pub pairing_rate: f64,
    /// Per-I/O-operation transport fault mix.
    pub transport_mix: TransportMix,
}

/// The bundle of all three plans under one seed.
#[derive(Clone, Debug)]
pub struct FaultPlane {
    seed: u64,
    /// HTM abort injection, consumed by `gocc-htm`.
    pub htm: Arc<HtmFaultPlan>,
    /// Lock/Unlock mis-pairing, consumed by chaos drivers.
    pub pairing: Arc<PairingFaultPlan>,
    /// I/O faults, consumed by `wire`/`server`/`loadgen`.
    pub transport: Arc<TransportFaultPlan>,
}

impl FaultPlane {
    /// Builds all three plans from one seed. Sub-plans get decorrelated
    /// seeds derived from `seed` so the same site/stream key does not see
    /// correlated schedules across plans.
    #[must_use]
    pub fn new(seed: u64, config: FaultPlaneConfig) -> Self {
        let mut derive = SplitMix64::new(seed);
        let htm_seed = derive.next_u64();
        let pairing_seed = derive.next_u64();
        let transport_seed = derive.next_u64();
        FaultPlane {
            seed,
            htm: Arc::new(HtmFaultPlan::new(htm_seed, config.abort_mix)),
            pairing: Arc::new(PairingFaultPlan::new(pairing_seed, config.pairing_rate)),
            transport: Arc::new(TransportFaultPlan::new(
                transport_seed,
                config.transport_mix,
            )),
        }
    }

    /// The root seed this plane was built from.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Snapshots every plan's injected-fault counters.
    #[must_use]
    pub fn report(&self) -> FaultReport {
        FaultReport {
            seed: self.seed,
            htm_injected: self.htm.counts(),
            pairing_injected: self.pairing.count(),
            transport_injected: self.transport.counts(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let cfg = FaultPlaneConfig {
            abort_mix: AbortMix::uniform(0.4),
            pairing_rate: 0.3,
            transport_mix: TransportMix::uniform(0.4),
        };
        let a = FaultPlane::new(99, cfg);
        let b = FaultPlane::new(99, cfg);
        for site in [1usize, 77, 1 << 40] {
            for _ in 0..200 {
                assert_eq!(a.htm.draw(site), b.htm.draw(site));
                assert_eq!(a.pairing.mispair(site), b.pairing.mispair(site));
            }
        }
        for stream in 0u64..8 {
            for _ in 0..200 {
                assert_eq!(a.transport.draw_read(stream), b.transport.draw_read(stream));
                assert_eq!(
                    a.transport.draw_write(stream),
                    b.transport.draw_write(stream)
                );
            }
        }
        assert_eq!(a.report(), b.report());
    }

    #[test]
    fn different_seeds_diverge() {
        let cfg = FaultPlaneConfig {
            abort_mix: AbortMix::uniform(0.5),
            pairing_rate: 0.5,
            transport_mix: TransportMix::uniform(0.5),
        };
        let a = FaultPlane::new(1, cfg);
        let b = FaultPlane::new(2, cfg);
        let draws_a: Vec<_> = (0..64).map(|_| a.htm.draw(7)).collect();
        let draws_b: Vec<_> = (0..64).map(|_| b.htm.draw(7)).collect();
        assert_ne!(draws_a, draws_b, "seeds must decorrelate schedules");
    }

    #[test]
    fn independent_keys_do_not_perturb_each_other() {
        let cfg = FaultPlaneConfig {
            abort_mix: AbortMix::uniform(0.4),
            ..FaultPlaneConfig::default()
        };
        // Plan A draws only for site 5; plan B interleaves site 5 with
        // heavy traffic on site 6. Site 5's schedule must be identical.
        let a = FaultPlane::new(4242, cfg);
        let b = FaultPlane::new(4242, cfg);
        let mut seq_a = Vec::new();
        let mut seq_b = Vec::new();
        for i in 0..100 {
            seq_a.push(a.htm.draw(5));
            if i % 2 == 0 {
                for _ in 0..3 {
                    let _ = b.htm.draw(6);
                }
            }
            seq_b.push(b.htm.draw(5));
        }
        assert_eq!(seq_a, seq_b);
    }

    #[test]
    fn report_counts_every_injection() {
        let cfg = FaultPlaneConfig {
            abort_mix: AbortMix::uniform(1.0),
            pairing_rate: 1.0,
            // Read-side classes only, summing to 1, so every read draw hits.
            transport_mix: TransportMix {
                short_read: 0.5,
                short_write: 0.0,
                stall: 0.25,
                reset: 0.25,
            },
        };
        let plane = FaultPlane::new(5, cfg);
        for _ in 0..10 {
            assert!(plane.htm.draw(1).is_some());
            assert!(plane.pairing.mispair(1));
            assert!(plane.transport.draw_read(1).is_some());
        }
        let report = plane.report();
        assert_eq!(report.htm_injected.iter().sum::<u64>(), 10);
        assert_eq!(report.pairing_injected, 10);
        assert_eq!(report.transport_injected.iter().sum::<u64>(), 10);
        let json = report.to_json();
        assert!(json.contains("\"seed\":5"), "json: {json}");
    }

    #[test]
    fn unit_is_in_range() {
        for i in 0..1000 {
            let u = unit(decide(3, 4, i));
            assert!((0.0..1.0).contains(&u));
        }
    }
}
