//! Load fault injection: seeded worker stalls and slow-store draws.
//!
//! The overload layer in `crates/server` (admission control, deadlines,
//! brownout) reacts to *latency pressure* — but real pressure needs real
//! wall-clock load, which makes its state transitions slow and flaky to
//! test. This plan manufactures the pressure deterministically instead:
//!
//! * **Stall** — a worker pauses between pump passes (a GC pause, a noisy
//!   neighbor stealing the core);
//! * **SlowStore** — one request's storage call takes extra time (a cold
//!   page, a contended shard).
//!
//! Both follow the crate-wide replay-by-seed contract: every draw is a
//! pure function of `(seed, key, n)` where `key` is the worker index and
//! `n` that worker's decision counter, so a brownout transition sequence
//! a schedule provokes is reproducible from its seed — and the brownout
//! controller itself can be unit-tested against plan draws with no server
//! and no wall clock at all.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::seq::SeqTable;
use crate::{decide, unit};

/// A load fault class.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoadFault {
    /// The worker pauses for this long before its next pump pass.
    Stall(Duration),
    /// One request's storage call is delayed by this long.
    SlowStore(Duration),
}

impl LoadFault {
    /// Stable index into counter arrays.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            LoadFault::Stall(_) => 0,
            LoadFault::SlowStore(_) => 1,
        }
    }
}

/// Per-decision load fault probabilities and magnitudes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LoadMix {
    /// P(worker stall) per pump-level draw.
    pub stall: f64,
    /// Length of an injected stall.
    pub stall_for: Duration,
    /// P(slow store) per request-level draw.
    pub slow_store: f64,
    /// Extra latency of an injected slow store call.
    pub slow_store_for: Duration,
}

impl Default for LoadMix {
    fn default() -> Self {
        LoadMix {
            stall: 0.0,
            stall_for: Duration::from_millis(2),
            slow_store: 0.0,
            slow_store_for: Duration::from_millis(1),
        }
    }
}

impl LoadMix {
    /// A mix applying `rate` to both classes with default magnitudes.
    #[must_use]
    pub fn uniform(rate: f64) -> Self {
        LoadMix {
            stall: rate,
            slow_store: rate,
            ..LoadMix::default()
        }
    }
}

/// Salt decorrelating worker-level draws from request-level draws, so the
/// stall schedule of worker *w* is independent of how many requests it
/// happens to serve.
const STORE_SALT: u64 = 0x51D7_4E0B_6A1C_9F35;

/// Deterministic per-worker load fault schedule.
#[derive(Debug)]
pub struct LoadFaultPlan {
    seed: u64,
    mix: LoadMix,
    worker_seq: SeqTable,
    store_seq: SeqTable,
    injected: [AtomicU64; 2],
}

impl LoadFaultPlan {
    /// A plan applying `mix` to every worker.
    #[must_use]
    pub fn new(seed: u64, mix: LoadMix) -> Self {
        LoadFaultPlan {
            seed,
            mix,
            worker_seq: SeqTable::new(),
            store_seq: SeqTable::new(),
            injected: Default::default(),
        }
    }

    /// The configured mix.
    #[must_use]
    pub fn mix(&self) -> LoadMix {
        self.mix
    }

    /// Decision for worker `w`'s next pump pass: stall or proceed.
    pub fn draw_worker(&self, w: u64) -> Option<LoadFault> {
        if self.mix.stall <= 0.0 {
            return None;
        }
        let n = self.worker_seq.next(w as usize);
        if unit(decide(self.seed, w, n)) < self.mix.stall {
            self.injected[0].fetch_add(1, Ordering::Relaxed);
            Some(LoadFault::Stall(self.mix.stall_for))
        } else {
            None
        }
    }

    /// Decision for the next storage call executed by worker `w`.
    pub fn draw_store(&self, w: u64) -> Option<LoadFault> {
        if self.mix.slow_store <= 0.0 {
            return None;
        }
        let n = self.store_seq.next(w as usize);
        if unit(decide(self.seed ^ STORE_SALT, w, n)) < self.mix.slow_store {
            self.injected[1].fetch_add(1, Ordering::Relaxed);
            Some(LoadFault::SlowStore(self.mix.slow_store_for))
        } else {
            None
        }
    }

    /// Injected counts, indexed per [`LoadFault::index`].
    #[must_use]
    pub fn counts(&self) -> [u64; 2] {
        [
            self.injected[0].load(Ordering::Relaxed),
            self.injected[1].load(Ordering::Relaxed),
        ]
    }

    /// Total injected load faults across both classes.
    #[must_use]
    pub fn total_injected(&self) -> u64 {
        self.counts().iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_mix_is_transparent() {
        let plan = LoadFaultPlan::new(1, LoadMix::default());
        for _ in 0..200 {
            assert_eq!(plan.draw_worker(0), None);
            assert_eq!(plan.draw_store(0), None);
        }
        assert_eq!(plan.total_injected(), 0);
    }

    #[test]
    fn same_seed_same_schedule() {
        let mix = LoadMix::uniform(0.4);
        let a = LoadFaultPlan::new(77, mix);
        let b = LoadFaultPlan::new(77, mix);
        for w in 0..4u64 {
            for _ in 0..200 {
                assert_eq!(a.draw_worker(w), b.draw_worker(w));
                assert_eq!(a.draw_store(w), b.draw_store(w));
            }
        }
        assert_eq!(a.counts(), b.counts());
        assert!(a.total_injected() > 0, "a 0.4 mix must fire in 1600 draws");
    }

    #[test]
    fn different_seeds_diverge() {
        let mix = LoadMix::uniform(0.5);
        let a = LoadFaultPlan::new(1, mix);
        let b = LoadFaultPlan::new(2, mix);
        let da: Vec<_> = (0..128).map(|_| a.draw_worker(3)).collect();
        let db: Vec<_> = (0..128).map(|_| b.draw_worker(3)).collect();
        assert_ne!(da, db);
    }

    #[test]
    fn worker_and_store_streams_are_independent() {
        // Plan A draws only worker-level; plan B interleaves store draws.
        // Worker 0's stall schedule must be identical either way.
        let mix = LoadMix::uniform(0.3);
        let a = LoadFaultPlan::new(9, mix);
        let b = LoadFaultPlan::new(9, mix);
        let mut seq_a = Vec::new();
        let mut seq_b = Vec::new();
        for i in 0..100 {
            seq_a.push(a.draw_worker(0));
            if i % 3 == 0 {
                let _ = b.draw_store(0);
            }
            seq_b.push(b.draw_worker(0));
        }
        assert_eq!(seq_a, seq_b);
    }

    #[test]
    fn magnitudes_come_from_the_mix() {
        let mix = LoadMix {
            stall: 1.0,
            stall_for: Duration::from_micros(123),
            slow_store: 1.0,
            slow_store_for: Duration::from_micros(456),
        };
        let plan = LoadFaultPlan::new(5, mix);
        assert_eq!(
            plan.draw_worker(0),
            Some(LoadFault::Stall(Duration::from_micros(123)))
        );
        assert_eq!(
            plan.draw_store(0),
            Some(LoadFault::SlowStore(Duration::from_micros(456)))
        );
        assert_eq!(plan.counts(), [1, 1]);
    }
}
